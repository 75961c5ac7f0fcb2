package taa

import (
	"context"
	"errors"
	"testing"
	"time"

	"metis/internal/lp"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/wan"
)

// TestSolveVarStopsOnLPCtx: LP.Ctx is the call's one context. A
// pre-canceled and an expired one each stop SolveVar with the matching
// solver sentinel instead of a schedule.
func TestSolveVarStopsOnLPCtx(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 1)
	caps := spm.ExpandCaps(inst, inst.UniformCaps(3))
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
			res, err := SolveVar(inst, caps, Options{LP: lp.Options{Ctx: tc.ctx}})
			if !errors.Is(err, tc.want) {
				t.Fatalf("SolveVar = %v, %v; want an error matching %v", res, err, tc.want)
			}
		})
	}
}
