package commitmgr

import "tell/internal/env"

// Restore rebuilds state from the peers' published snapshots — how a fresh
// commit manager takes over after a failure (§4.4.3).
func (s *Server) Restore(ctx env.Ctx) {
	s.pullPeers(ctx)
}
