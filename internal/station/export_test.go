package station

import (
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
)

// Abort exposes the crash-simulation hook to the external test package:
// stop the workers and drop the WAL handle without the final epoch cut or
// a clean sync, exactly as if the process had died.
func (s *Server) Abort() { s.abort() }

// ProcStream exposes one procedure's standing estimation state: its path
// model, its streaming estimator, and the power-truncated invocations
// counted against it across epochs.
func (s *Server) ProcStream(name string) (*tomography.Model, *tomography.Incremental, int) {
	for _, ps := range s.procs {
		if ps.name == name && ps.stream != nil {
			return ps.stream.Model, ps.stream.Incremental, ps.stream.Lost
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
	for _, ps := range s.procs {
		if ps.name == name {
			_, _, d := s.procModel(ps)
			return d
		}
	}
	return pipeline.NoModel
}
