package commitmgr

import "tell/internal/env"

// Restore rebuilds state from the peers' published snapshots — how a fresh
// commit manager takes over after a failure (§4.4.3).
func (s *Server) Restore(ctx env.Ctx) {
	s.pullPeers(ctx)
}

// Committed reports a successful commit (setCommitted, §4.2) and blocks
// until the manager acknowledges it: a Start anywhere after it returns sees
// the commit.
func (c *Client) Committed(ctx env.Ctx, tid uint64) error {
	return c.QueueFinish(ctx, tid, true).Wait(ctx)
}
