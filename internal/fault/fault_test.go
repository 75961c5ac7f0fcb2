package fault

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestInactiveByDefault(t *testing.T) {
	Reset()
	if Active() {
		t.Fatal("Active() = true with no sites armed")
	}
	Hit("lp.solve") // must be a no-op
	if got := NaN("core.profit", 3.5); got != 3.5 {
		t.Fatalf("NaN passthrough = %v, want 3.5", got)
	}
}

func TestAfterEverySchedule(t *testing.T) {
	defer Reset()
	Reset()
	fired := 0
	Enable("site", Spec{Kind: KindCancel, After: 3, Every: 2, Cancel: func() { fired++ }})
	for i := 0; i < 8; i++ {
		Hit("site")
	}
	// Fires on hits 3, 5, 7.
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	if Hits("site") != 8 || Fired("site") != 3 {
		t.Fatalf("Hits=%d Fired=%d, want 8/3", Hits("site"), Fired("site"))
	}
}

func TestFireOnceDefault(t *testing.T) {
	defer Reset()
	Reset()
	fired := 0
	Enable("site", Spec{Kind: KindCancel, Cancel: func() { fired++ }})
	for i := 0; i < 5; i++ {
		Hit("site")
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1 (After=0, Every=0)", fired)
	}
}

func TestNaN(t *testing.T) {
	defer Reset()
	Reset()
	Enable("core.profit", Spec{Kind: KindNaN, After: 2})
	if got := NaN("core.profit", 1.0); math.IsNaN(got) {
		t.Fatal("fired on hit 1, want hit 2")
	}
	if got := NaN("core.profit", 1.0); !math.IsNaN(got) {
		t.Fatalf("hit 2 = %v, want NaN", got)
	}
	if got := NaN("core.profit", 1.0); math.IsNaN(got) {
		t.Fatal("fired again after one-shot")
	}
}

func TestParse(t *testing.T) {
	defer Reset()
	Reset()
	ctx, cancel := context.WithCancel(context.Background())
	if err := Parse("core.round:cancel:2", cancel); err != nil {
		t.Fatal(err)
	}
	Hit("core.round")
	if ctx.Err() != nil {
		t.Fatal("canceled on hit 1, want hit 2")
	}
	Hit("core.round")
	if ctx.Err() == nil {
		t.Fatal("not canceled on hit 2")
	}

	Reset()
	if err := Parse("lp.solve:sleep:1:3ms", nil); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	Hit("lp.solve")
	if d := time.Since(t0); d < 3*time.Millisecond {
		t.Fatalf("sleep fault paused %v, want >= 3ms", d)
	}

	for _, bad := range []string{"", "justasite", "s:explode", "s:cancel:x", "s:sleep:1:zz"} {
		if err := Parse(bad, nil); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", bad)
		}
	}
}
