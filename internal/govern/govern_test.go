package govern

import (
	"errors"
	"sync"
	"testing"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/metrics"
)

func wait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	var a *Account
	a.Charge(100)
	a.Release(100)
	if a.Used() != 0 || g.Used() != 0 || g.Budget() != 0 {
		t.Fatal("nil accounting should be zero")
	}
	if g.Pressure() != Steady {
		t.Fatalf("nil pressure = %v, want steady", g.Pressure())
	}
	if err := g.Admit("x"); err != nil {
		t.Fatalf("nil Admit = %v, want nil", err)
	}
	if d := g.Quarantine("x"); d != 0 {
		t.Fatalf("nil Quarantine = %v, want 0", d)
	}
	g.RegisterReliever(0, "none", func(int64) int64 { return 0 })
	if st := g.Snapshot(); st.Pressure != "steady" {
		t.Fatalf("nil Snapshot pressure = %q", st.Pressure)
	}
	g.Close()
	if a := g.Account("x"); a != nil {
		t.Fatal("nil governor should hand out nil accounts")
	}
}

func TestPressureLevelsAndThresholds(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGovernor(Config{Budget: 1000, Metrics: reg})
	defer g.Close()
	a := g.Account("test")

	a.Charge(500) // 50% — steady
	if p := g.Pressure(); p != Steady {
		t.Fatalf("at 50%%: pressure %v, want steady", p)
	}
	a.Charge(250) // 75% — evict
	if p := g.Pressure(); p != Evict {
		t.Fatalf("at 75%%: pressure %v, want evict", p)
	}
	a.Charge(150) // 90% — shed
	if p := g.Pressure(); p != Shed {
		t.Fatalf("at 90%%: pressure %v, want shed", p)
	}
	a.Charge(60) // 96% — reject
	if p := g.Pressure(); p != Reject {
		t.Fatalf("at 96%%: pressure %v, want reject", p)
	}
	if v, ok := reg.GaugeValue("govern_pressure_level"); !ok || v != int64(Reject) {
		t.Fatalf("govern_pressure_level = %d,%v want %d", v, ok, Reject)
	}
	a.Release(960)
	if p := g.Pressure(); p != Steady {
		t.Fatalf("after release: pressure %v, want steady", p)
	}
	if g.Used() != 0 || a.Used() != 0 {
		t.Fatalf("usage after symmetric release: root=%d acct=%d", g.Used(), a.Used())
	}
	// The high-water outlives the excursion; the level does not.
	st := g.Snapshot()
	if v, _ := reg.GaugeValue("govern_pressure_peak"); st.Level != 0 || st.PeakLevel != int(Reject) || v != int64(Reject) {
		t.Fatalf("after release: level %d, peak %d, govern_pressure_peak %d; want 0, %d, %d", st.Level, st.PeakLevel, v, Reject, Reject)
	}
}

func TestAccountAttribution(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGovernor(Config{Budget: 1 << 20, Metrics: reg})
	defer g.Close()
	hub := g.Account("hub")
	rings := g.Account("rings")
	if again := g.Account("hub"); again != hub {
		t.Fatal("Account should return the same instance per name")
	}
	hub.Charge(100)
	rings.Charge(50)
	if hub.Used() != 100 || rings.Used() != 50 || g.Used() != 150 {
		t.Fatalf("attribution: hub=%d rings=%d root=%d", hub.Used(), rings.Used(), g.Used())
	}
	if v, ok := reg.GaugeValue("govern_used_bytes_hub"); !ok || v != 100 {
		t.Fatalf("govern_used_bytes_hub = %d,%v", v, ok)
	}
	st := g.Snapshot()
	if len(st.Accounts) != 2 || st.Accounts[0].Name != "hub" || st.Accounts[0].Used != 100 {
		t.Fatalf("snapshot accounts: %+v", st.Accounts)
	}
}

func TestReliefRunsRelieversInPriorityOrder(t *testing.T) {
	g := NewGovernor(Config{Budget: 1000, Metrics: metrics.NewRegistry()})
	defer g.Close()
	a := g.Account("test")

	var mu sync.Mutex
	var order []string
	g.RegisterReliever(20, "shed", func(need int64) int64 {
		mu.Lock()
		order = append(order, "shed")
		mu.Unlock()
		a.Release(400)
		return 400
	})
	g.RegisterReliever(10, "evict", func(need int64) int64 {
		mu.Lock()
		order = append(order, "evict")
		mu.Unlock()
		a.Release(200)
		return 200
	})

	a.Charge(990) // deep into reject: needs ~340 freed to clear evictAt+5%
	wait(t, "relief to bring usage below evict threshold", func() bool {
		return g.Pressure() == Steady
	})
	mu.Lock()
	defer mu.Unlock()
	if len(order) < 2 || order[0] != "evict" || order[1] != "shed" {
		t.Fatalf("reliever order = %v, want evict before shed", order)
	}
}

func TestReliefStopsWhenNothingFreed(t *testing.T) {
	g := NewGovernor(Config{Budget: 1000, Metrics: metrics.NewRegistry()})
	defer g.Close()
	a := g.Account("test")
	calls := make(chan struct{}, 64)
	g.RegisterReliever(10, "dry", func(need int64) int64 {
		calls <- struct{}{}
		return 0 // nothing to free
	})
	a.Charge(800)
	<-calls
	// The loop must not spin: after a dry round it waits for the next signal.
	select {
	case <-calls:
		t.Fatal("relief loop spun on a reliever that freed nothing")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestAdmitRejectsUnderPressure(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGovernor(Config{Budget: 1000, Metrics: reg, RetryAfterBase: 100 * time.Millisecond})
	defer g.Close()
	a := g.Account("test")
	if err := g.Admit("w1"); err != nil {
		t.Fatalf("steady Admit = %v", err)
	}
	a.Charge(960) // reject territory
	err := g.Admit("w1")
	if err == nil {
		t.Fatal("Admit under reject pressure should fail")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err %v should match ErrOverloaded", err)
	}
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err %T should be *Overloaded", err)
	}
	if ov.RetryAfter < 100*time.Millisecond || ov.RetryAfter > 200*time.Millisecond {
		t.Fatalf("RetryAfter %v outside [base, 2*base]", ov.RetryAfter)
	}
	if got := reg.Counter("govern_rejects_total").Value(); got != 1 {
		t.Fatalf("rejects counter = %d, want 1", got)
	}
}

func TestQuarantineEscalatesAndExpires(t *testing.T) {
	clk := clockwork.NewFake()
	g := NewGovernor(Config{
		Budget: 1 << 20, Metrics: metrics.NewRegistry(), Clock: clk,
		QuarantineBase: time.Second, QuarantineMax: 8 * time.Second,
	})
	defer g.Close()

	d1 := g.Quarantine("w1")
	if d1 < 750*time.Millisecond || d1 > 1250*time.Millisecond {
		t.Fatalf("first quarantine %v outside jittered base", d1)
	}
	err := g.Admit("w1")
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("quarantined Admit = %v, want *Overloaded", err)
	}
	if g.Admit("w2") != nil {
		t.Fatal("unrelated key should still be admitted")
	}
	// Strikes escalate: the second offense waits roughly twice as long.
	d2 := g.Quarantine("w1")
	if d2 < 1500*time.Millisecond || d2 > 2500*time.Millisecond {
		t.Fatalf("second quarantine %v, want ~2s jittered", d2)
	}
	// Doubling caps at QuarantineMax (8s) regardless of strikes.
	for i := 0; i < 10; i++ {
		if d := g.Quarantine("w1"); d > 10*time.Second {
			t.Fatalf("quarantine %v exceeded jittered max", d)
		}
	}
	clk.Advance(11 * time.Second)
	if err := g.Admit("w1"); err != nil {
		t.Fatalf("Admit after quarantine expiry = %v", err)
	}
	st := g.Snapshot()
	if st.Quarantined != 0 {
		t.Fatalf("snapshot quarantined = %d after expiry", st.Quarantined)
	}
	if st.Sheds != 12 {
		t.Fatalf("sheds counter = %d, want 12", st.Sheds)
	}
}

func TestSnapshotShape(t *testing.T) {
	g := NewGovernor(Config{Budget: 4096, Metrics: metrics.NewRegistry()})
	defer g.Close()
	g.Account("b").Charge(10)
	g.Account("a").Charge(5)
	st := g.Snapshot()
	if st.BudgetBytes != 4096 || st.UsedBytes != 15 || st.Pressure != "steady" || st.Level != 0 {
		t.Fatalf("snapshot %+v", st)
	}
	if len(st.Accounts) != 2 || st.Accounts[0].Name != "a" || st.Accounts[1].Name != "b" {
		t.Fatalf("accounts not sorted: %+v", st.Accounts)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	g := NewGovernor(Config{Budget: 100, Metrics: metrics.NewRegistry()})
	g.Close()
	g.Close()
	// Accounts still tally after close; only relief stops.
	a := g.Account("late")
	a.Charge(50)
	if g.Used() != 50 {
		t.Fatalf("post-close charge lost: %d", g.Used())
	}
}
