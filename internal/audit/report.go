package audit

import (
	"fmt"
	"maps"
	"time"
)

// Events reports how many events the model has consumed.
func (a *Auditor) Events() int64 { return a.events.Load() }

// ByRule reports how many violations of each rule were recorded.
func (a *Auditor) ByRule() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return maps.Clone(a.byRule)
}

// MaxStaleness reports the worst observed staleness.
func (a *Auditor) MaxStaleness() time.Duration { return a.stale.Max() }

// StaleReads reports how many reads returned a superseded version.
func (a *Auditor) StaleReads() int64 { return a.staleReads.Load() }

// Err summarizes the audit: nil when every invariant held, otherwise an
// error quoting the first violations. Intended as the single check at the
// end of a test or simulation run.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.totalViol.Load()
	if total == 0 {
		return nil
	}
	msg := fmt.Sprintf("audit: %d invariant violation(s)", total)
	for _, v := range a.violations {
		msg += "; " + v.String()
	}
	if rest := total - int64(len(a.violations)); rest > 0 {
		msg += fmt.Sprintf("; and %d more", rest)
	}
	return fmt.Errorf("%s", msg)
}
