package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rtle/internal/obs"
)

// SampleConfig asks Run (or a manual StartSampler call) to emit periodic
// delta rows from an obs.Registry while the workload executes: live
// throughput, per-path commit rates, abort rates, and lock-fallback
// fraction. The registry must be the one installed as the method's
// Policy.Observer. Zero Interval or nil Registry/W disables sampling.
type SampleConfig struct {
	// Registry is the observability registry the workload publishes into.
	Registry *obs.Registry
	// Interval is the sampling period (e.g. 100ms).
	Interval time.Duration
	// W receives a CSV header row, then one sample row per interval.
	W io.Writer
}

func (c SampleConfig) enabled() bool {
	return c.Registry != nil && c.Interval > 0 && c.W != nil
}

// Sampler emits periodic delta samples from a registry until stopped.
type Sampler struct {
	cfg   SampleConfig
	start time.Time
	stop  chan struct{}
	done  sync.WaitGroup
}

// StartSampler begins periodic sampling; it returns nil when cfg disables
// sampling. Call Stop to emit the final partial interval and shut down.
func StartSampler(cfg SampleConfig) *Sampler {
	if !cfg.enabled() {
		return nil
	}
	s := &Sampler{cfg: cfg, start: time.Now(), stop: make(chan struct{})}
	fmt.Fprintln(cfg.W, "t_ms,ops,ops_per_ms,fast_commits,slow_commits,lock_runs,stm_commits,abort_rate,lock_fallback,subscription_aborts")
	// Reset the delta baseline to now, so the first row covers only the
	// sampled window.
	cfg.Registry.Snapshot()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.emit()
			case <-s.stop:
				s.emit()
				return
			}
		}
	}()
	return s
}

// Stop emits one final row covering the last partial interval and waits for
// the sampler goroutine to exit. Safe to call on a nil Sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	s.done.Wait()
}

func (s *Sampler) emit() {
	d := s.cfg.Registry.DeltaSince()
	st := &d.Stats
	fmt.Fprintf(s.cfg.W, "%d,%d,%.3f,%d,%d,%d,%d,%.4f,%.4f,%d\n",
		time.Since(s.start).Milliseconds(), st.Ops, d.Throughput()/1e3, st.FastCommits,
		st.SlowCommits, st.LockRuns, st.STMCommitsHTM+st.STMCommitsLock+st.STMCommitsRO,
		d.AbortRate(), st.LockFallbackFraction(), st.SubscriptionAborts)
}
