package stream

// Commit-window controller. How many transactions of a query may be in
// flight bounds how many boundaries the commit spine can batch into one
// group-commit submission, and the spine's linger bounds how long it
// holds out for them. An AutoTuner is the one mechanism that sets both,
// shared by the two ends of a pipeline (TransactionsTuned upstream,
// MergeTuned at the region barrier). A pinned tuner (NewFixedTuner) never
// moves: its window is fixed and its linger stays spineLinger, which is
// the static spine; Transactions is the pinned-1 case.
//
// The self-tuning form (NewAutoTuner) exists because the right window
// depends on the store's observed fsync latency: on a synced LSM a bigger
// window keeps amortizing the fsync over more transactions; on a memory
// store batching buys little and a large window only defers decisions.
// The controller measures instead of guessing:
//
//   - The spine worker times every clean commit run (the CommitChain
//     submission — admission, the coalesced store Apply with its fsync,
//     install and publish) and accumulates per-transaction cost.
//   - Every Settle batches the controller decides: if per-batch decision
//     latency exceeds LatencyBound the window HALVES (latency guard);
//     otherwise it probes upward, DOUBLING while the marginal
//     per-transaction cost keeps improving and reverting (with
//     hysteresis) when a probe stops paying.
//   - The linger follows the window: it targets the time the spine
//     expects window-1 further boundaries to take to arrive (the enqueue
//     inter-arrival EWMA), clamped to [spineLinger, MaxLinger] — a fast
//     producer never waits longer than it must, a slow one never holds a
//     decided transaction past MaxLinger.
//
// Tuning changes BATCHING GEOMETRY only: which transactions commit and
// which abort is identical to any pinned window (the windowed
// transactions ride one txn.Chain either way, and a chain of one is a
// plain transaction) — pinned by TestPropertyAdaptiveEquivalence.

import (
	"fmt"
	"sync/atomic"
	"time"

	"sistream/internal/metrics"
)

// Defaults for zero-valued AutoTune fields.
const (
	// DefaultMaxWindow bounds how far the controller may grow the
	// in-flight transaction window.
	DefaultMaxWindow = 64
	// DefaultLatencyBound is the per-batch decision-latency ceiling: a
	// batch whose commit work exceeds it makes the controller halve the
	// window regardless of throughput.
	DefaultLatencyBound = 25 * time.Millisecond
	// DefaultMaxLinger caps how long the spine holds a decided
	// transaction while collecting a batch.
	DefaultMaxLinger = 2 * time.Millisecond
	// DefaultSettle is how many batches the controller observes between
	// decisions — the hysteresis that keeps one noisy batch from
	// thrashing the window.
	DefaultSettle = 8
)

// growMargin is the relative per-transaction cost improvement a window
// probe must deliver to stick; reverts below it. The margin is the
// hysteresis band: oscillating around a flat cost curve never holds.
const growMargin = 0.05

// holdDecisions is how many decisions the controller sits out after a
// shrink or a failed probe before probing upward again.
const holdDecisions = 4

// AutoTune configures the self-tuning commit spine (NewAutoTuner). The
// zero value of every field selects its default.
type AutoTune struct {
	// MaxWindow bounds the adaptive transaction window (default
	// DefaultMaxWindow).
	MaxWindow int
	// LatencyBound is the per-batch decision-latency ceiling above which
	// the window shrinks (default DefaultLatencyBound).
	LatencyBound time.Duration
	// MaxLinger caps the spine's batch-collection wait (default
	// DefaultMaxLinger).
	MaxLinger time.Duration
	// Settle is the number of observed batches per controller decision
	// (default DefaultSettle).
	Settle int
}

// AutoTuner is the shared state between the two ends of a commit spine:
// TransactionsTuned reads the current window at every transaction begin,
// the MergeTuned spine worker reads window and linger while collecting
// batches and feeds observations back. Create one per pipeline
// (NewAutoTuner, or NewFixedTuner for a static window) and pass it to
// both ends; the controller logic runs only on the spine worker
// goroutine, so all decision state is single-writer.
type AutoTuner struct {
	cfg AutoTune

	window   atomic.Int64 // current window; read by TransactionsTuned
	lingerNs atomic.Int64 // current linger; read by the spine worker

	grows   atomic.Uint64
	shrinks atomic.Uint64

	// Occupancy and inter-arrival signals, recorded at spine enqueue.
	occupancy    metrics.EWMA
	interArrival metrics.EWMA
	lastEnqueue  atomic.Int64 // UnixNano of the previous enqueue

	// Decision accumulator — owned by the spine worker goroutine.
	accTxns    int
	accBatches int
	accNs      int64
	// Probe state: prevCost is the accepted per-transaction cost the next
	// probe must beat; probing marks a doubled window awaiting its
	// verdict; hold counts decisions to sit out after a revert/shrink.
	prevCost   float64
	prevWindow int
	probing    bool
	hold       int

	// pinned marks a NewFixedTuner: observations never move the knobs.
	pinned bool
}

// NewAutoTuner creates the controller for one self-tuning pipeline,
// starting at window 1 (no batching until measurements justify it).
func NewAutoTuner(cfg AutoTune) *AutoTuner {
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = DefaultMaxWindow
	}
	if cfg.LatencyBound <= 0 {
		cfg.LatencyBound = DefaultLatencyBound
	}
	if cfg.MaxLinger <= 0 {
		cfg.MaxLinger = DefaultMaxLinger
	}
	if cfg.Settle <= 0 {
		cfg.Settle = DefaultSettle
	}
	a := &AutoTuner{cfg: cfg}
	a.window.Store(1)
	a.lingerNs.Store(int64(spineLinger))
	return a
}

// NewFixedTuner creates a pinned tuner: its window is fixed at window and
// its linger at the spine's floor, so the pipeline runs the static spine.
// NewFixedTuner(1) is the strictly serialized Transactions.
func NewFixedTuner(window int) *AutoTuner {
	if window < 1 {
		panic("stream: NewFixedTuner needs window >= 1")
	}
	a := NewAutoTuner(AutoTune{MaxWindow: window})
	a.pinned = true
	a.window.Store(int64(window))
	return a
}

// describe renders the tuner's construction-time plan decision — the one
// rendering both of a pipeline's ends record (Transactions and the
// spine): "window=N (fixed)" for a pinned tuner, "window=auto" for the
// controller.
func (a *AutoTuner) describe() string {
	if a.pinned {
		return fmt.Sprintf("window=%d (fixed)", a.Window())
	}
	return "window=auto"
}

// live renders the tuner's current knob positions for a plan step.
func (a *AutoTuner) live() string {
	st := a.Stats()
	return fmt.Sprintf("window=%d linger=%s grows=%d shrinks=%d", st.Window, st.Linger, st.Grows, st.Shrinks)
}

// Window returns the controller's current transaction window, in
// [1, MaxWindow]. TransactionsTuned consults it at every BOT, so a
// resize takes effect on the next transaction — in-flight ones are
// never disturbed.
func (a *AutoTuner) Window() int { return int(a.window.Load()) }

// linger returns the spine's current batch-collection bound.
func (a *AutoTuner) linger() time.Duration {
	return time.Duration(a.lingerNs.Load())
}

// AutoTunerStats is a point-in-time view of the controller
// (AutoTuner.Stats).
type AutoTunerStats struct {
	// Window and Linger are the current knob positions.
	Window int
	Linger time.Duration
	// Grows counts upward window resizes (probes); Shrinks counts
	// downward ones (latency halvings and probe reverts) — both non-zero
	// means the controller actually explored.
	Grows, Shrinks uint64
	// QueueOccupancy is the EWMA of the spine queue length at enqueue;
	// InterArrival the EWMA of time between enqueues.
	QueueOccupancy float64
	InterArrival   time.Duration
}

// Stats snapshots the controller.
func (a *AutoTuner) Stats() AutoTunerStats {
	return AutoTunerStats{
		Window:         a.Window(),
		Linger:         a.linger(),
		Grows:          a.grows.Load(),
		Shrinks:        a.shrinks.Load(),
		QueueOccupancy: a.occupancy.Value(),
		InterArrival:   time.Duration(a.interArrival.Value()),
	}
}

// noteEnqueue records one boundary arriving at the spine queue: the
// queue occupancy it found and the inter-arrival gap since the previous
// one. Called by the barrier coordinator (any lane goroutine may be
// coordinator, so everything here is atomic).
func (a *AutoTuner) noteEnqueue(queueLen int) {
	// +1: strictly positive so an idle queue still seeds the EWMA.
	a.occupancy.Observe(float64(queueLen) + 1)
	now := time.Now().UnixNano()
	if prev := a.lastEnqueue.Swap(now); prev != 0 && now > prev {
		a.interArrival.Observe(float64(now - prev))
	}
}

// observeBatch feeds one timed commit submission (n transactions decided
// in d) into the controller; every Settle batches it re-decides the
// window and linger. A pinned tuner ignores it. Spine-worker goroutine
// only.
func (a *AutoTuner) observeBatch(n int, d time.Duration) {
	if a.pinned {
		return
	}
	a.accTxns += n
	a.accBatches++
	a.accNs += d.Nanoseconds()
	if a.accBatches < a.cfg.Settle {
		return
	}
	a.decide()
	a.accTxns, a.accBatches, a.accNs = 0, 0, 0
}

// decide is one controller step over the accumulated interval.
func (a *AutoTuner) decide() {
	if a.accTxns == 0 {
		return
	}
	w := a.Window()
	batchLat := float64(a.accNs) / float64(a.accBatches)
	cost := float64(a.accNs) / float64(a.accTxns)

	switch {
	case batchLat > float64(a.cfg.LatencyBound.Nanoseconds()) && w > 1:
		// Latency guard: decisions are arriving too slowly; halve
		// regardless of throughput and hold before probing again.
		a.setWindow(w / 2)
		a.shrinks.Add(1)
		a.probing = false
		a.hold = holdDecisions
		a.prevCost = 0 // stale baseline: the regime changed
	case a.probing:
		a.probing = false
		if a.prevCost > 0 && cost > a.prevCost*(1-growMargin) {
			// The doubled window did not pay its margin: revert and hold.
			a.setWindow(a.prevWindow)
			a.shrinks.Add(1)
			a.hold = holdDecisions
		} else {
			// Probe accepted; its cost is the next baseline.
			a.prevCost = cost
		}
	case a.hold > 0:
		a.hold--
	case w < a.cfg.MaxWindow:
		if a.prevCost == 0 {
			a.prevCost = cost
		}
		a.prevWindow = w
		a.setWindow(w * 2)
		a.grows.Add(1)
		a.probing = true
	}
	a.retarget()
}

// setWindow clamps and publishes a new window.
func (a *AutoTuner) setWindow(w int) {
	if w < 1 {
		w = 1
	}
	if w > a.cfg.MaxWindow {
		w = a.cfg.MaxWindow
	}
	a.window.Store(int64(w))
}

// retarget follows the window with the linger: long enough for the rest
// of a window's boundaries to arrive at the observed inter-arrival rate,
// clamped to [spineLinger, MaxLinger].
func (a *AutoTuner) retarget() {
	w := a.Window()
	target := int64(spineLinger)
	if ia := a.interArrival.Value(); ia > 0 && w > 1 {
		if t := int64(ia) * int64(w-1); t > target {
			target = t
		}
	}
	if max := a.cfg.MaxLinger.Nanoseconds(); target > max {
		target = max
	}
	a.lingerNs.Store(target)
}
