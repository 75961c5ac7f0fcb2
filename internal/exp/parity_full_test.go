package exp

import "testing"

// TestFullScaleWarmColdParity is the full-DefaultConfig-scale version
// of TestWarmColdFigureParity: every fig5 and fig4a column must be
// unchanged (±1e-9) between the warm-started solver stack (a seeded
// first BL-SPM solve, warm ones after) and the ColdLP path, which is
// bit-identical to the pre-warm-start code. The run regenerates both
// figures twice at paper scale (K up to 500), about a second on two
// cores and ten times that under -race; -short skips it.
func TestFullScaleWarmColdParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale parity sweep: skipped under -short")
	}
	warmCfg := DefaultConfig()
	warmCfg.Parallel = 4
	coldCfg := warmCfg
	coldCfg.coldLP = true

	type runner struct {
		name string
		run  func(Config) ([]*Figure, error)
	}
	runners := []runner{
		{"fig5", Fig5},
		{"fig4a", func(c Config) ([]*Figure, error) {
			f, err := Fig4a(c)
			return []*Figure{f}, err
		}},
	}
	for _, rn := range runners {
		warm, err := rn.run(warmCfg)
		if err != nil {
			t.Fatalf("%s warm: %v", rn.name, err)
		}
		cold, err := rn.run(coldCfg)
		if err != nil {
			t.Fatalf("%s cold: %v", rn.name, err)
		}
		for f := range warm {
			wf, cf := warm[f], cold[f]
			for r := range wf.X {
				for _, series := range wf.Series {
					wv, _ := wf.Value(r, series)
					cv, _ := cf.Value(r, series)
					if diff := wv - cv; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("%s %s row %s series %s: warm %v != cold %v",
							rn.name, wf.ID, wf.X[r], series, wv, cv)
					}
				}
			}
		}
	}
}
