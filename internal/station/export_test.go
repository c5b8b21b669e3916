package station

import (
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
)

// Abort exposes the crash-simulation hook to the external test package:
// refuse ingest and cuts and release the WAL without the final epoch cut,
// as if the process had died.
func (s *Server) Abort() { s.abort() }

// ProcStream exposes one procedure's standing estimation state: its path
// model, its streaming estimator, and the power-truncated invocations
// counted against it across epochs.
func (s *Server) ProcStream(name string) (*tomography.Model, *tomography.Incremental, int) {
	for _, o := range s.procs {
		if o.Proc.Name == name && o.Stream != nil {
			return o.Model, o.Stream, o.Lost
		}
	}
	return nil, nil, 0
}

// ProcDecision exposes the trust decision behind one procedure's Trusted
// flag in the latest snapshot: pipeline.Trusted, or the reason the
// estimate was rejected.
func (s *Server) ProcDecision(name string) pipeline.Decision {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for _, o := range s.decided() {
		if o.Proc.Name == name {
			return o.Decision
		}
	}
	return pipeline.NoModel
}
