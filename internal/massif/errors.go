package massif

import (
	"errors"
	"fmt"
)

// ErrAllWorkersDead is the sentinel for a distributed solve in which every
// worker died: there is no surviving strain state to assemble, so no
// degraded result is possible. Match with errors.Is; the concrete
// AllDeadError carries the last worker failure for errors.As inspection
// (typically a *cluster.CrashError).
var ErrAllWorkersDead = errors.New("massif: all workers dead")

// AllDeadError reports that all Workers ranks failed during a distributed
// solve. It matches both ErrAllWorkersDead (errors.Is) and the wrapped
// final worker error (errors.As), via multi-error unwrapping.
type AllDeadError struct {
	Workers int   // cluster size
	Last    error // a rank's own crash when one was observed, else the first worker failure (may be nil)
}

func (e *AllDeadError) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("massif: all %d workers dead, last failure: %v", e.Workers, e.Last)
	}
	return fmt.Sprintf("massif: all %d workers dead", e.Workers)
}

// Unwrap exposes both the sentinel and the causal worker error.
func (e *AllDeadError) Unwrap() []error {
	if e.Last == nil {
		return []error{ErrAllWorkersDead}
	}
	return []error{ErrAllWorkersDead, e.Last}
}
