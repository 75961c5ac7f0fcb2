// Package fault provides deterministic fault injection at named sites
// inside the solver stack. Production code guards every site with a
// single atomic load (Active), so with no faults armed the hooks cost
// one predictable branch; tests and metisbench -fault arm specific
// sites to force cancellation, slow LP solves, or NaN profits and so
// exercise the degradation paths that healthy runs never take.
//
// Injection is deterministic: a site fires on exact hit counts
// (Spec.After, then every Spec.Every hits), so a failing test
// reproduces from its spec alone.
package fault

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed site does when it fires.
type Kind int

// Fault kinds.
const (
	// KindCancel calls the spec's CancelFunc, canceling the solve's
	// context mid-flight.
	KindCancel Kind = iota + 1
	// KindSleep pauses the hitting goroutine for Spec.Sleep, simulating
	// a slow LP solve or estimator walk.
	KindSleep
	// KindNaN makes the site's NaN hook return NaN instead of its input,
	// simulating a corrupted cost/profit computation.
	KindNaN
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCancel:
		return "cancel"
	case KindSleep:
		return "sleep"
	case KindNaN:
		return "nan"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec arms one site.
type Spec struct {
	// Kind selects the fault behavior.
	Kind Kind
	// After is the 1-based hit count on which the site first fires
	// (0 means the first hit).
	After int
	// Every re-fires the site every Every hits after the first firing
	// (0 means fire exactly once).
	Every int
	// Sleep is the KindSleep pause per firing.
	Sleep time.Duration
	// Cancel is the KindCancel target; required for that kind.
	Cancel context.CancelFunc
}

// site is the registry entry for one armed site.
type site struct {
	spec  Spec
	hits  int
	fired int
}

var (
	active atomic.Bool
	mu     sync.Mutex
	sites  map[string]*site
)

// Active reports whether any site is armed. It is the one-instruction
// guard production call sites use before paying for a map lookup:
//
//	if fault.Active() {
//		fault.Hit("lp.solve")
//	}
func Active() bool { return active.Load() }

// Enable arms the named site with spec. Re-enabling a site resets its
// hit counters.
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	sites[name] = &site{spec: spec}
	active.Store(true)
}

// Reset disarms every site and drops all counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	active.Store(false)
}

// Hits returns how many times the named site has been hit since it was
// armed (0 when not armed).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[name]; s != nil {
		return s.hits
	}
	return 0
}

// Fired returns how many times the named site has fired.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[name]; s != nil {
		return s.fired
	}
	return 0
}

// step records a hit on s and reports whether it fires this time.
func (s *site) step() bool {
	s.hits++
	first := s.spec.After
	if first <= 0 {
		first = 1
	}
	if s.hits < first {
		return false
	}
	if s.hits == first || (s.spec.Every > 0 && (s.hits-first)%s.spec.Every == 0) {
		s.fired++
		return true
	}
	return false
}

// Hit records one pass through the named site and executes its fault
// when it fires: KindCancel invokes the CancelFunc, KindSleep pauses.
// KindNaN sites record the hit but act only through the NaN hook.
// Unarmed sites are no-ops.
func Hit(name string) {
	if !active.Load() {
		return
	}
	mu.Lock()
	s := sites[name]
	fire := s != nil && s.step()
	var spec Spec
	if fire {
		spec = s.spec
	}
	mu.Unlock()
	if !fire {
		return
	}
	switch spec.Kind {
	case KindCancel:
		if spec.Cancel != nil {
			spec.Cancel()
		}
	case KindSleep:
		time.Sleep(spec.Sleep)
	}
}

// NaN passes v through the named site: when the site is armed with
// KindNaN and fires on this hit, it returns NaN instead. All other
// configurations return v unchanged.
func NaN(name string, v float64) float64 {
	if !active.Load() {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	s := sites[name]
	if s == nil || s.spec.Kind != KindNaN {
		return v
	}
	if s.step() {
		var nan float64
		return nan / nan
	}
	return v
}

// Parse arms a site from its textual form
// "site:kind[:after[:everyOrSleep]]", e.g. "lp.solve:sleep:1:5ms" or
// "core.round:cancel:3". cancel supplies the CancelFunc used by cancel
// kinds (nil is allowed; the site then fires as a no-op). It exists for
// CLI flags like metisbench -fault.
func Parse(arg string, cancel context.CancelFunc) error {
	parts := strings.Split(arg, ":")
	if len(parts) < 2 {
		return fmt.Errorf("fault: %q: want site:kind[:after[:every|sleep]]", arg)
	}
	spec := Spec{Cancel: cancel}
	switch parts[1] {
	case "cancel":
		spec.Kind = KindCancel
	case "sleep":
		spec.Kind = KindSleep
		spec.Sleep = time.Millisecond
	case "nan":
		spec.Kind = KindNaN
	default:
		return fmt.Errorf("fault: %q: unknown kind %q (cancel, sleep, nan)", arg, parts[1])
	}
	if len(parts) >= 3 {
		if _, err := fmt.Sscanf(parts[2], "%d", &spec.After); err != nil {
			return fmt.Errorf("fault: %q: bad after count %q", arg, parts[2])
		}
	}
	if len(parts) >= 4 {
		if spec.Kind == KindSleep {
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return fmt.Errorf("fault: %q: bad sleep %q", arg, parts[3])
			}
			spec.Sleep = d
		} else if _, err := fmt.Sscanf(parts[3], "%d", &spec.Every); err != nil {
			return fmt.Errorf("fault: %q: bad every count %q", arg, parts[3])
		}
	}
	Enable(parts[0], spec)
	return nil
}
