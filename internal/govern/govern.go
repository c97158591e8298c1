// Package govern bounds the process's soft state in bytes.
//
// The stack bounds its queues in *events* (hub retention, WatcherBuffer,
// remote outbound limits), but the paper's §3 backlog pathologies are about
// *bytes*: a resume storm of large-value watchers, or a snapshot burst, can
// grow sealed segments, watcher rings, and outbound frames without limit
// until the OS OOM-killer intervenes — the least graceful degradation
// possible. The governor makes overload a first-class state instead: one
// root budget, child accounts per subsystem (hub segments, watcher rings,
// remote outbound, pubsub logs), and a degradation ladder that trades
// freshness for survival in priority order:
//
//	Evict  — accelerate segment eviction down to a configured floor
//	         (soft state shrinks; watchers are untouched)
//	Shed   — lag out the worst-offending watchers onto the existing
//	         resync path (explicit, recoverable; repeat offenders are
//	         quarantined with a jittered re-admit delay)
//	Reject — admission-control new Watch/resume/snapshot requests with a
//	         typed Overloaded{RetryAfter} the wire protocol carries so
//	         remote clients back off instead of hammering
//
// Every transition is observable: a govern_pressure_level gauge (which the
// flight recorder's memory-pressure detector watches), shed/reject counters,
// and a /govern debugz endpoint fed by Snapshot.
//
// The fast path is two atomic adds; a nil *Governor or nil *Account is a
// no-op, so ungoverned builds pay a single predictable branch.
package govern

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/flightrec"
	"unbundle/internal/metrics"
)

// Pressure is the governor's degradation level, ordered by severity.
type Pressure int32

const (
	// Steady: usage below the evict threshold; nothing degrades.
	Steady Pressure = iota
	// Evict: relievers run, evicting retained soft state down to floors.
	Evict
	// Shed: eviction alone is not enough; worst-offending watchers are
	// lagged out onto the resync path.
	Shed
	// Reject: new admissions are refused with Overloaded{RetryAfter}.
	Reject
)

func (p Pressure) String() string {
	switch p {
	case Steady:
		return "steady"
	case Evict:
		return "evict"
	case Shed:
		return "shed"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("pressure(%d)", int32(p))
	}
}

// ErrOverloaded is the sentinel matched by errors.Is for any admission
// refusal. The concrete error is *Overloaded, which carries RetryAfter.
var ErrOverloaded = errors.New("govern: overloaded")

// Overloaded is the typed admission-control refusal. RetryAfter is the
// server's backoff hint; the wire protocol carries it to remote clients.
type Overloaded struct {
	// RetryAfter is how long the caller should wait before retrying.
	RetryAfter time.Duration
	// Reason is a short human-readable cause ("over budget", "quarantined").
	Reason string
}

func (e *Overloaded) Error() string {
	return fmt.Sprintf("govern: overloaded (%s): retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any *Overloaded.
func (e *Overloaded) Is(target error) bool { return target == ErrOverloaded }

// Config parameterizes a Governor. Budget is required; everything else
// defaults sanely.
type Config struct {
	// Budget is the root byte budget for all accounted soft state.
	Budget int64
	// EvictFrac, ShedFrac, RejectFrac are the budget fractions at which each
	// pressure level engages. Defaults: 0.70, 0.85, 0.95. They must be
	// ascending; zero values take the defaults.
	EvictFrac, ShedFrac, RejectFrac float64
	// RetryAfterBase is the base backoff hint attached to rejections
	// (jittered up to 2x). Default 500ms.
	RetryAfterBase time.Duration
	// QuarantineBase is the re-admit delay after a watcher's first shed;
	// it doubles per repeat offense up to QuarantineMax. Defaults 1s / 30s.
	QuarantineBase, QuarantineMax time.Duration
	// Seed fixes the jitter source for deterministic tests (0 = fixed
	// default seed; jitter stays deterministic either way).
	Seed int64
	// Metrics receives the governor's gauges and counters; nil uses the
	// process-default registry.
	Metrics *metrics.Registry
	// Recorder receives flight records for pressure transitions and sheds.
	Recorder *flightrec.Recorder
	// Clock drives quarantine expiry; nil uses the real clock.
	Clock clockwork.Clock
}

type governMetrics struct {
	level       *metrics.Gauge // govern_pressure_level — detector input
	peak        *metrics.Gauge // govern_pressure_peak — highest level reached
	transitions *metrics.Counter
	sheds       *metrics.Counter
	rejects     *metrics.Counter
	reliefRuns  *metrics.Counter
	quarantines *metrics.Counter
}

// Governor is the process-wide memory governor. All methods are safe for
// concurrent use; Charge/Release on its Accounts are two atomic adds plus a
// threshold compare. A nil *Governor is a valid no-op.
type Governor struct {
	cfg   Config
	met   governMetrics
	clock clockwork.Clock
	rec   *flightrec.Recorder

	evictAt, shedAt, rejectAt int64

	used  atomic.Int64
	level atomic.Int32

	reliefCh chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	mu        sync.Mutex
	accounts  []*Account
	relievers []reliever
	quar      map[string]quarEntry
	jitter    *rand.Rand
}

type reliever struct {
	priority int
	name     string
	fn       func(need int64) int64
}

type quarEntry struct {
	strikes int
	until   time.Time
}

// Account is one subsystem's child budget line. It tracks its own usage for
// attribution (debugz /govern) and forwards every delta to the root.
// A nil *Account is a valid no-op.
type Account struct {
	g    *Governor
	name string
	used atomic.Int64
}

// NewGovernor builds and starts a governor. Close releases its relief
// goroutine.
func NewGovernor(cfg Config) *Governor {
	if cfg.Budget <= 0 {
		panic("govern: Config.Budget must be positive")
	}
	if cfg.EvictFrac <= 0 {
		cfg.EvictFrac = 0.70
	}
	if cfg.ShedFrac <= 0 {
		cfg.ShedFrac = 0.85
	}
	if cfg.RejectFrac <= 0 {
		cfg.RejectFrac = 0.95
	}
	if !(cfg.EvictFrac < cfg.ShedFrac && cfg.ShedFrac < cfg.RejectFrac) {
		panic("govern: thresholds must ascend: EvictFrac < ShedFrac < RejectFrac")
	}
	if cfg.RetryAfterBase <= 0 {
		cfg.RetryAfterBase = 500 * time.Millisecond
	}
	if cfg.QuarantineBase <= 0 {
		cfg.QuarantineBase = time.Second
	}
	if cfg.QuarantineMax <= 0 {
		cfg.QuarantineMax = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x60BE51
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clockwork.Real()
	}
	reg := cfg.Metrics.Or()
	g := &Governor{
		cfg:      cfg,
		clock:    clk,
		rec:      cfg.Recorder,
		evictAt:  int64(float64(cfg.Budget) * cfg.EvictFrac),
		shedAt:   int64(float64(cfg.Budget) * cfg.ShedFrac),
		rejectAt: int64(float64(cfg.Budget) * cfg.RejectFrac),
		reliefCh: make(chan struct{}, 1),
		done:     make(chan struct{}),
		quar:     make(map[string]quarEntry),
		jitter:   rand.New(rand.NewSource(seed)),
	}
	g.met = governMetrics{
		level:       reg.Gauge("govern_pressure_level"),
		peak:        reg.Gauge("govern_pressure_peak"),
		transitions: reg.Counter("govern_pressure_transitions_total"),
		sheds:       reg.Counter("govern_sheds_total"),
		rejects:     reg.Counter("govern_rejects_total"),
		reliefRuns:  reg.Counter("govern_relief_runs_total"),
		quarantines: reg.Counter("govern_quarantines_total"),
	}
	reg.Gauge("govern_budget_bytes").Set(cfg.Budget)
	reg.GaugeFunc("govern_used_bytes", g.used.Load)
	g.wg.Add(1)
	go g.reliefLoop()
	return g
}

// Account returns the named child account, creating it on first use. The
// name feeds a govern_used_bytes_<name> gauge and the /govern breakdown.
// A nil governor returns a nil (no-op) account.
func (g *Governor) Account(name string) *Account {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, a := range g.accounts {
		if a.name == name {
			return a
		}
	}
	a := &Account{g: g, name: name}
	g.accounts = append(g.accounts, a)
	g.cfg.Metrics.Or().GaugeFunc("govern_used_bytes_"+name, a.used.Load)
	return a
}

// Charge adds n bytes to the account (and the root). Negative n releases.
func (a *Account) Charge(n int64) {
	if a == nil || n == 0 {
		return
	}
	a.used.Add(n)
	a.g.adjust(n)
}

// Release subtracts n bytes from the account (and the root).
func (a *Account) Release(n int64) {
	if a == nil || n == 0 {
		return
	}
	a.used.Add(-n)
	a.g.adjust(-n)
}

// Used reports the account's current accounted bytes.
func (a *Account) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Name reports the account's registered name.
func (a *Account) Name() string {
	if a == nil {
		return ""
	}
	return a.name
}

func (g *Governor) adjust(n int64) {
	used := g.used.Add(n)
	lvl := g.levelFor(used)
	if old := Pressure(g.level.Load()); lvl != old {
		g.transition(old, lvl)
	}
	// Prod the relief goroutine on any charge made under pressure — not only
	// on the upward transition — so sustained growth keeps relief running.
	if n > 0 && lvl >= Evict {
		select {
		case g.reliefCh <- struct{}{}:
		default:
		}
	}
}

func (g *Governor) levelFor(used int64) Pressure {
	switch {
	case used >= g.rejectAt:
		return Reject
	case used >= g.shedAt:
		return Shed
	case used >= g.evictAt:
		return Evict
	default:
		return Steady
	}
}

func (g *Governor) transition(old, lvl Pressure) {
	if !g.level.CompareAndSwap(int32(old), int32(lvl)) {
		return // raced with another transition; its view wins
	}
	g.met.level.Set(int64(lvl))
	// The high-water is kept here, where the level changes, not sampled: an
	// excursion shorter than any poll interval still counts.
	g.met.peak.Max(int64(lvl))
	g.met.transitions.Inc()
	used := g.used.Load()
	g.rec.Record(flightrec.KindMemoryPressure, flightrec.Event{
		Comp:   "govern",
		N:      used,
		Detail: fmt.Sprintf("pressure %s -> %s (%d/%d bytes)", old, lvl, used, g.cfg.Budget),
	})
}

// Pressure reports the current degradation level. Nil-safe (Steady).
func (g *Governor) Pressure() Pressure {
	if g == nil {
		return Steady
	}
	return Pressure(g.level.Load())
}

// Used reports the root's accounted bytes. Nil-safe (0).
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Budget reports the configured root budget. Nil-safe (0).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.cfg.Budget
}

// RegisterReliever adds a degradation step invoked (in ascending priority
// order) while usage sits above the evict threshold. fn is asked to free
// `need` bytes and returns how many it actually freed (via Releases it
// triggered); returning 0 means it has nothing left to give and the loop
// moves to the next priority. Relievers run on the governor's relief
// goroutine, never on a Charge caller.
func (g *Governor) RegisterReliever(priority int, name string, fn func(need int64) int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.relievers = append(g.relievers, reliever{priority: priority, name: name, fn: fn})
	sort.SliceStable(g.relievers, func(i, j int) bool {
		return g.relievers[i].priority < g.relievers[j].priority
	})
}

func (g *Governor) reliefLoop() {
	defer g.wg.Done()
	for {
		select {
		case <-g.done:
			return
		case <-g.reliefCh:
		}
		for {
			used := g.used.Load()
			if used < g.evictAt {
				break
			}
			// Free down past the evict threshold with ~5%-of-budget
			// hysteresis so relief doesn't re-trigger on the next charge.
			need := used - g.evictAt + g.cfg.Budget/20
			if g.runRelievers(need) <= 0 {
				break // nothing left to free; wait for the next signal
			}
		}
	}
}

func (g *Governor) runRelievers(need int64) int64 {
	g.mu.Lock()
	rs := append([]reliever(nil), g.relievers...)
	g.mu.Unlock()
	g.met.reliefRuns.Inc()
	var freed int64
	for _, r := range rs {
		if freed >= need {
			break
		}
		select {
		case <-g.done:
			return freed
		default:
		}
		freed += r.fn(need - freed)
	}
	return freed
}

// Admit is the admission-control gate for new Watch/resume/snapshot
// requests. It refuses with *Overloaded when pressure has reached Reject,
// or when key (a caller identity such as a watcher's range) is quarantined
// after repeated sheds. Nil-safe; an empty key skips the quarantine check.
func (g *Governor) Admit(key string) error {
	if g == nil {
		return nil
	}
	if Pressure(g.level.Load()) >= Reject {
		g.met.rejects.Inc()
		return &Overloaded{RetryAfter: g.retryAfter(), Reason: "over budget"}
	}
	if key == "" {
		return nil
	}
	g.mu.Lock()
	e, ok := g.quar[key]
	if !ok {
		g.mu.Unlock()
		return nil
	}
	now := g.clock.Now()
	if now.Before(e.until) {
		wait := e.until.Sub(now)
		g.mu.Unlock()
		g.met.rejects.Inc()
		return &Overloaded{RetryAfter: wait, Reason: "quarantined after repeated sheds"}
	}
	// Expired long ago: the offender has served its time; forget the
	// strike history so it does not escalate forever.
	if now.Sub(e.until) > 2*g.cfg.QuarantineMax {
		delete(g.quar, key)
	}
	g.mu.Unlock()
	return nil
}

// Quarantine records a shed against key and returns the jittered re-admit
// delay: QuarantineBase doubling per strike, capped at QuarantineMax, with
// ±25% jitter so a herd of offenders does not re-admit in lockstep.
func (g *Governor) Quarantine(key string) time.Duration {
	if g == nil || key == "" {
		return 0
	}
	g.mu.Lock()
	e := g.quar[key]
	e.strikes++
	d := g.cfg.QuarantineBase << uint(min(e.strikes-1, 16))
	if d > g.cfg.QuarantineMax || d <= 0 {
		d = g.cfg.QuarantineMax
	}
	// jitter in [0.75d, 1.25d)
	d = d*3/4 + time.Duration(g.jitter.Int63n(int64(d/2)+1))
	e.until = g.clock.Now().Add(d)
	g.quar[key] = e
	g.mu.Unlock()
	g.met.sheds.Inc()
	g.met.quarantines.Inc()
	g.rec.Record(flightrec.KindMemoryPressure, flightrec.Event{
		Comp:   "govern",
		N:      int64(e.strikes),
		Detail: "shed+quarantine " + key + " for " + d.String(),
	})
	return d
}

func (g *Governor) retryAfter() time.Duration {
	base := g.cfg.RetryAfterBase
	g.mu.Lock()
	j := time.Duration(g.jitter.Int63n(int64(base) + 1))
	g.mu.Unlock()
	return base + j
}

// AccountStats is one account line in Stats.
type AccountStats struct {
	Name string `json:"name"`
	Used int64  `json:"used_bytes"`
}

// Stats is the governor's observable state, served at debugz /govern.
type Stats struct {
	BudgetBytes int64          `json:"budget_bytes"`
	UsedBytes   int64          `json:"used_bytes"`
	Pressure    string         `json:"pressure"`
	Level       int            `json:"level"`
	PeakLevel   int            `json:"peak_level"` // highest Level since start
	Sheds       int64          `json:"sheds"`
	Rejects     int64          `json:"rejects"`
	ReliefRuns  int64          `json:"relief_runs"`
	Quarantined int            `json:"quarantined"`
	Accounts    []AccountStats `json:"accounts,omitempty"`
}

// Snapshot returns a point-in-time view of the governor. Nil-safe (zero).
func (g *Governor) Snapshot() Stats {
	if g == nil {
		return Stats{Pressure: Steady.String()}
	}
	lvl := g.Pressure()
	st := Stats{
		BudgetBytes: g.cfg.Budget,
		UsedBytes:   g.used.Load(),
		Pressure:    lvl.String(),
		Level:       int(lvl),
		PeakLevel:   int(g.met.peak.Value()),
		Sheds:       g.met.sheds.Value(),
		Rejects:     g.met.rejects.Value(),
		ReliefRuns:  g.met.reliefRuns.Value(),
	}
	g.mu.Lock()
	now := g.clock.Now()
	for _, e := range g.quar {
		if now.Before(e.until) {
			st.Quarantined++
		}
	}
	for _, a := range g.accounts {
		st.Accounts = append(st.Accounts, AccountStats{Name: a.name, Used: a.used.Load()})
	}
	g.mu.Unlock()
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].Name < st.Accounts[j].Name })
	return st
}

// Close stops the relief goroutine. Accounts remain usable (charges still
// tally) but no further relief runs. Nil-safe, idempotent.
func (g *Governor) Close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	select {
	case <-g.done:
	default:
		close(g.done)
	}
	g.mu.Unlock()
	g.wg.Wait()
}
