package spm

import (
	"math"
	"testing"

	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// sessionLoads accumulates the fractional link loads of a
// subset-shaped relaxation X over the subset's requests.
func sessionLoads(inst *sched.Instance, subset []int, x [][]float64) [][]float64 {
	loads := make([][]float64, inst.Network().NumLinks())
	for e := range loads {
		loads[e] = make([]float64, inst.Slots())
	}
	for k, i := range subset {
		r := inst.Request(i)
		for j := range x[k] {
			if x[k][j] == 0 {
				continue
			}
			for _, e := range inst.Path(i, j).Links {
				for t := r.Start; t <= r.End; t++ {
					loads[e][t] += x[k][j] * r.Rate
				}
			}
		}
	}
	return loads
}

// sessionShapes are the inputs the session's differential tests run
// over: the generated workload, and the ties the index-keyed tie-break
// is there to break or must survive not breaking. The adversarial ones
// may take the retained cold re-solve rung; agreement with the rebuild
// is required of all of them alike.
var sessionShapes = []struct {
	name  string
	net   func() *wan.Network
	shape func(pool []demand.Request) // edits the generated pool in place
}{
	{name: "generated", net: wan.SubB4},
	{name: "one value and rate", net: wan.SubB4, shape: func(pool []demand.Request) {
		for i := range pool {
			pool[i].Value, pool[i].Rate = 0.3, 0.2
		}
	}},
	{name: "zero values", net: wan.SubB4, shape: func(pool []demand.Request) {
		for i := range pool {
			if i%3 == 0 {
				pool[i].Value = 0
			}
		}
	}},
	// Every link doubled: a request's candidate paths repeat the same
	// route at the same price over twin links.
	{name: "repeated paths", net: twinLinkNet},
}

// twinLinkNet is a three-DC ring with every directed link present twice.
func twinLinkNet() *wan.Network {
	dcs := []wan.DC{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"}}
	var links []wan.Link
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2}} {
		for twin := 0; twin < 2; twin++ {
			links = append(links, wan.Link{From: pair[0], To: pair[1], Price: 2})
		}
	}
	net, err := wan.NewNetwork("twin-ring", dcs, links)
	if err != nil {
		panic(err)
	}
	return net
}

// TestBLSessionMatchesColdRebuild drives randomized arrival batches,
// expiries and capacity retargets through a persistent warm session and
// a from-scratch cold rebuild, asserting revenue and near-exact X
// agreement after every step, and that the session's tied revenue stays
// an upper bound on the untied BLModel optimum within tieBreak of it.
// Seeds are printed in failures; rebuild with stats.NewRNG(seed) and
// the same step sequence to replay.
func TestBLSessionMatchesColdRebuild(t *testing.T) {
	for _, sh := range sessionShapes {
		t.Run(sh.name, func(t *testing.T) {
			net := sh.net()
			for trial := 0; trial < 8; trial++ {
				seed := int64(5200 + trial)
				pool := genRequests(t, net, 40, seed)
				if sh.shape != nil {
					sh.shape(pool)
				}
				sessionVersusRebuild(t, net, pool, seed)
			}
		})
	}
}

// sessionVersusRebuild feeds pool to one persistent session in random
// batches, with random expiries and capacity drift between solves, and
// checks every solve against a fresh session and the untied BLModel.
func sessionVersusRebuild(t *testing.T, net *wan.Network, pool []demand.Request, seed int64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	var (
		sess   *BLSession
		inst   *sched.Instance
		active []int
		used   int
	)
	caps := make([]int, net.NumLinks())
	for step := 0; used < len(pool); step++ {
		batch := 1 + rng.Intn(8)
		if used+batch > len(pool) {
			batch = len(pool) - used
		}
		newReqs := pool[used : used+batch]
		var err error
		if inst == nil {
			inst, err = sched.NewInstance(net, 12, newReqs, 3)
		} else {
			inst, err = inst.Extend(newReqs, 3)
		}
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		for i := used; i < used+batch; i++ {
			active = append(active, i)
		}
		used += batch
		if sess == nil {
			if sess, err = NewBLSession(inst, lp.Options{}); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		} else if err = sess.Extend(inst); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}

		// Random expiries leave the set; capacities drift.
		kept := active[:0]
		for _, i := range active {
			if rng.Float64() >= 0.15 {
				kept = append(kept, i)
			}
		}
		active = kept
		for e := range caps {
			if rng.Float64() < 0.4 {
				caps[e] = rng.Intn(6)
			}
		}

		warm, err := sess.SolveSubset(active, caps)
		if err != nil {
			t.Fatalf("seed %d step %d session: %v", seed, step, err)
		}
		fresh, err := NewBLSession(inst, lp.Options{})
		if err != nil {
			t.Fatalf("seed %d step %d rebuild: %v", seed, step, err)
		}
		cold, err := fresh.SolveSubset(active, caps)
		if err != nil {
			t.Fatalf("seed %d step %d rebuild solve: %v", seed, step, err)
		}
		tol := 1e-9 * (1 + math.Abs(cold.Revenue))
		if math.Abs(warm.Revenue-cold.Revenue) > tol {
			t.Fatalf("seed %d step %d: session revenue %.15g != rebuild %.15g (Δ=%g)",
				seed, step, warm.Revenue, cold.Revenue, warm.Revenue-cold.Revenue)
		}
		for k := range cold.X {
			for j := range cold.X[k] {
				if math.Abs(warm.X[k][j]-cold.X[k][j]) > 1e-8 {
					t.Fatalf("seed %d step %d: X[%d][%d] session %.12g != rebuild %.12g",
						seed, step, k, j, warm.X[k][j], cold.X[k][j])
				}
			}
		}

		// The tie-break only ever adds to a column's price, by at most
		// tieBreak of it.
		model, err := NewBLModel(inst, lp.Options{})
		if err != nil {
			t.Fatalf("seed %d step %d untied model: %v", seed, step, err)
		}
		untied, err := model.SolveSubset(active, caps)
		if err != nil {
			t.Fatalf("seed %d step %d untied solve: %v", seed, step, err)
		}
		if lo, hi := untied.Revenue-tol, untied.Revenue*(1+tieBreak)+tol; warm.Revenue < lo || warm.Revenue > hi {
			t.Fatalf("seed %d step %d: session revenue %.15g outside [untied, (1+%g)·untied] of untied %.15g",
				seed, step, warm.Revenue, tieBreak, untied.Revenue)
		}
	}
}

// TestBLSessionExtendValidation: shape-changing or shrinking
// extensions are refused.
func TestBLSessionExtendValidation(t *testing.T) {
	net := wan.SubB4()
	pool := genRequests(t, net, 6, 77)
	inst, err := sched.NewInstance(net, 12, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewBLSession(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	short, err := sched.NewInstance(net, 12, pool[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Extend(short); err == nil {
		t.Fatal("shrinking extension accepted")
	}
	other, err := sched.NewInstance(wan.SubB4(), 12, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Extend(other); err == nil {
		t.Fatal("extension with a different network object accepted")
	}
	if _, err := sess.SolveSubset([]int{99}, make([]int, net.NumLinks())); err == nil {
		t.Fatal("out-of-range subset accepted")
	}
	if _, err := sess.SolveSubset([]int{0}, []int{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
}

// FuzzEpochDelta interleaves arrivals, expiries, capacity retargets and
// cycle wraps as deltas against a persistent BLSession and cross-checks
// every solve against a freshly built model: objectives must agree and
// the session's fractional solution must be basis-feasible (accept rows
// ≤ 1, capacity rows within caps). shape picks one of sessionShapes, so
// the corpus covers the ties the tie-break cannot separate as well.
func FuzzEpochDelta(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 3, 0, 1, 2, 0, 3})
	f.Add(int64(7), uint8(0), []byte{0, 0, 1, 9, 3, 2, 4, 0, 11, 6})
	f.Add(int64(42), uint8(0), []byte{0, 1, 0, 1, 0, 1, 2, 0, 3, 3, 3, 1})
	for shape := 1; shape < len(sessionShapes); shape++ {
		f.Add(int64(shape), uint8(shape), []byte{0, 8, 4, 3, 0, 1, 19, 8, 2, 0, 4, 35, 1})
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		sh := sessionShapes[int(shape)%len(sessionShapes)]
		net := sh.net()
		g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		pool, err := g.GenerateN(30)
		if err != nil {
			t.Fatal(err)
		}
		if sh.shape != nil {
			sh.shape(pool)
		}

		var (
			sess   *BLSession
			inst   *sched.Instance
			active []int
			used   int // pool requests consumed across all cycles
			base   int // pool index of the current cycle's first request
		)
		caps := make([]int, net.NumLinks())
		for e := range caps {
			caps[e] = 3
		}
		for step, op := range ops {
			switch op % 4 {
			case 0: // arrival batch folds in as appended columns
				batch := 1 + int(op>>2)%3
				if used+batch > len(pool) {
					continue
				}
				newReqs := pool[used : used+batch]
				if inst == nil {
					inst, err = sched.NewInstance(net, 12, newReqs, 3)
				} else {
					inst, err = inst.Extend(newReqs, 3)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := used; i < used+batch; i++ {
					active = append(active, i-base)
				}
				used += batch
				if sess == nil {
					if sess, err = NewBLSession(inst, lp.Options{}); err != nil {
						t.Fatal(err)
					}
				} else if err = sess.Extend(inst); err != nil {
					t.Fatal(err)
				}
			case 1: // expiry leaves the active set
				if len(active) > 0 {
					k := int(op>>2) % len(active)
					active = append(active[:k], active[k+1:]...)
				}
			case 2: // cycle wrap drops the session outright
				sess, inst, active = nil, nil, nil
				base = used
			default: // capacity retarget
				caps[int(op>>2)%len(caps)] = int(op>>4) % 6
			}
			if sess == nil {
				continue
			}
			warm, err := sess.SolveSubset(active, caps)
			if err != nil {
				t.Fatalf("seed %d step %d (op %d): session: %v", seed, step, op, err)
			}
			fresh, err := NewBLSession(inst, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fresh.SolveSubset(active, caps)
			if err != nil {
				t.Fatalf("seed %d step %d (op %d): rebuild: %v", seed, step, op, err)
			}
			tol := 1e-7 * (1 + math.Abs(cold.Revenue))
			if math.Abs(warm.Revenue-cold.Revenue) > tol {
				t.Fatalf("seed %d step %d (op %d): session revenue %.15g != rebuild %.15g",
					seed, step, op, warm.Revenue, cold.Revenue)
			}
			// Basis feasibility of the session's fractional solution.
			for k, i := range active {
				sum := 0.0
				for _, v := range warm.X[k] {
					if v < -checkEps || v > 1+checkEps {
						t.Fatalf("seed %d step %d: x[%d] = %v out of [0,1]", seed, step, i, v)
					}
					sum += v
				}
				if sum > 1+1e-6 {
					t.Fatalf("seed %d step %d: request %d accept row sums to %v", seed, step, i, sum)
				}
			}
			loads := sessionLoads(inst, active, warm.X)
			for e := range loads {
				for tt, v := range loads[e] {
					if v > float64(caps[e])+1e-6 {
						t.Fatalf("seed %d step %d: link %d slot %d load %v exceeds cap %d",
							seed, step, e, tt, v, caps[e])
					}
				}
			}
		}
	})
}
