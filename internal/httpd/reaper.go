package httpd

import (
	"log/slog"
	"sync"
	"time"

	"tbnet/internal/fleet"
)

// reaper is the idle-model janitor: hosted models that have served no
// traffic for the idle TTL are removed from the fleet, releasing their
// secure-memory reservations back to the budget for the models that are
// actually hot. The default model is never reaped — the daemon always has
// something to serve — and a reaped model can come back at any time via a
// swap-with-create or AddModel from the management side.
type reaper struct {
	fleet   *fleet.Fleet
	ttl     time.Duration
	log     *slog.Logger
	metrics *httpMetrics

	// mu guards lastSeen and the loop's lifecycle: done is the scan loop's
	// exit signal, nil until start launches the loop — so stop has nothing
	// to wait for on a reaper that never ran — and stopped records that
	// stopCh is closed.
	mu       sync.Mutex
	lastSeen map[string]time.Time
	done     chan struct{}
	stopped  bool
	stopCh   chan struct{}
}

// newReaper builds a reaper over f. With ttl 0 the reaper only tracks
// touches (start is a no-op), so handlers can stamp activity unconditionally.
func newReaper(f *fleet.Fleet, ttl time.Duration, log *slog.Logger, m *httpMetrics) *reaper {
	return &reaper{
		fleet:    f,
		ttl:      ttl,
		log:      log,
		metrics:  m,
		lastSeen: make(map[string]time.Time),
		stopCh:   make(chan struct{}),
	}
}

// touch stamps the model as active now, deferring its expiry by a full TTL.
func (rp *reaper) touch(model string) {
	rp.mu.Lock()
	rp.lastSeen[model] = time.Now()
	rp.mu.Unlock()
}

// start launches the scan loop, which sweeps every TTL/4 (at least 100ms
// apart), so an idle model goes at most one interval after its TTL. It is a
// no-op when the TTL is 0, when the loop already runs, and after stop.
func (rp *reaper) start() {
	if rp.ttl <= 0 {
		return
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.done != nil || rp.stopped {
		return
	}
	done := make(chan struct{})
	rp.done = done
	go func() {
		defer close(done)
		tick := time.NewTicker(max(rp.ttl/4, 100*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-rp.stopCh:
				return
			case <-tick.C:
				rp.sweep(time.Now())
			}
		}
	}()
}

// stop halts the scan loop and waits for an in-progress sweep to finish. It
// is safe before start (nothing to wait for), after it, and more than once.
func (rp *reaper) stop() {
	rp.mu.Lock()
	if !rp.stopped {
		rp.stopped = true
		close(rp.stopCh)
	}
	done := rp.done
	rp.mu.Unlock()
	if done != nil {
		<-done
	}
}

// sweep removes every non-default hosted model whose last touch is older
// than the TTL. A model hosted before the daemon started (or added out of
// band) gets stamped on first sight, so it always survives one full TTL
// before becoming eligible.
func (rp *reaper) sweep(now time.Time) {
	var expired []string
	rp.mu.Lock()
	for _, name := range rp.fleet.Models() {
		if name == fleet.DefaultModel {
			continue
		}
		seen, ok := rp.lastSeen[name]
		if !ok {
			rp.lastSeen[name] = now
			continue
		}
		if now.Sub(seen) >= rp.ttl {
			expired = append(expired, name)
		}
	}
	rp.mu.Unlock()
	for _, name := range expired {
		if err := rp.fleet.RemoveModel(name); err != nil {
			rp.log.Warn("reap failed", "model", name, "err", err)
			continue
		}
		rp.mu.Lock()
		delete(rp.lastSeen, name)
		rp.mu.Unlock()
		rp.metrics.reaped.Add(1)
		rp.log.Info("reaped idle model", "model", name, "idle_ttl", rp.ttl.String())
	}
}
