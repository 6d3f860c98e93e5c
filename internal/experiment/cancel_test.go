package experiment

import (
	"context"
	"errors"
	"testing"
)

// The sweeps must honor their context: a canceled ctx stops dispatching
// and surfaces ctx.Err() instead of a partial, silently-truncated run
// set a report could mistake for complete.

func TestRunGridCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := Fig3Specs(0.05)
	if _, err := RunGridCtx(ctx, specs, Config{Seed: 1, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGridCtx on canceled ctx: %v, want context.Canceled", err)
	}
}

func TestFaultSweepCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultFaultConfig(1, 0.05)
	if _, err := FaultSweepCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("FaultSweepCtx on canceled ctx: %v, want context.Canceled", err)
	}
}
