package deploy

import (
	"fmt"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/transport"
)

// Sim is a deployment on the discrete-event simulator: it owns the kernel,
// the simulated environment and network, and the driver node that stands in
// for the machines running the terminals.
//
// NewSim and Build are separate steps because a tracer must be installed on
// Env — and a telemetry pipeline needs Env's clock — before any node exists.
type Sim struct {
	K      *sim.Kernel
	Env    env.Full
	Net    *transport.SimNet
	Driver env.Node
	// Deployment is nil until Build.
	*Deployment
}

// NewSim creates the kernel, environment and network for one seeded run.
func NewSim(seed int64, class transport.NetworkClass) *Sim {
	k := sim.NewKernel(seed)
	envr := env.NewSim(k)
	return &Sim{
		K:      k,
		Env:    envr,
		Net:    transport.NewSimNet(k, class),
		Driver: envr.NewNode("terminals", PNCores),
	}
}

// Build assembles spec on the simulated environment (see Build).
func (s *Sim) Build(spec Spec) error {
	d, err := Build(s.Env, s.Net, spec)
	if err != nil {
		return err
	}
	s.Deployment = d
	return nil
}

// Run executes fn as the driver activity and advances the simulation until
// fn returns or the virtual deadline passes, then shuts the kernel down; the
// Sim is finished afterwards. fn starts from a recoverable base: bulk loads
// bypass the WAL, so durable storage nodes checkpoint first (a no-op on a
// volatile tier).
func (s *Sim) Run(deadline time.Duration, fn func(ctx env.Ctx)) error {
	var runErr error
	done := false
	s.Driver.Go("driver", func(ctx env.Ctx) {
		defer s.K.Stop() // also fires on a test's t.Fatal (Goexit)
		if runErr = s.Storage.CheckpointAll(ctx); runErr != nil {
			return
		}
		fn(ctx)
		done = true
	})
	err := s.K.RunUntil(sim.Time(deadline))
	s.K.Shutdown()
	switch {
	case err != nil:
		return err
	case runErr != nil:
		return runErr
	case !done:
		return fmt.Errorf("deploy: driver did not finish within the virtual deadline of %v", deadline)
	}
	return nil
}
