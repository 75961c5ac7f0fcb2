package maa

import (
	"context"
	"errors"
	"testing"
	"time"

	"metis/internal/lp"
	"metis/internal/solvectx"
	"metis/internal/stats"
	"metis/internal/wan"
)

// TestSolveStopsOnLPCtx: LP.Ctx is the call's one context. A
// pre-canceled and an expired one each stop Solve with the matching
// solver sentinel instead of a schedule.
func TestSolveStopsOnLPCtx(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 1)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, solvectx.ErrCanceled},
		{"expired", expired, solvectx.ErrDeadline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(inst, Options{LP: lp.Options{Ctx: tc.ctx}, RNG: stats.NewRNG(1)})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Solve = %v, %v; want an error matching %v", res, err, tc.want)
			}
		})
	}
}
