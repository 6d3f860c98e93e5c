package experiment

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// forEach must report the lowest failing index, not whichever failure
// finishes first: with several workers, job 3 fails only after job 40
// has failed.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("job 3"), errors.New("job 40")
	for _, workers := range []int{1, 8} {
		highFailed := make(chan struct{})
		err := forEach(context.Background(), 64, workers, func(i int) error {
			switch i {
			case 3:
				if workers > 1 {
					<-highFailed
				}
				return errLow
			case 40:
				close(highFailed)
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errLow)
		}
	}
}

// Canceling ctx stops dispatch: a canceled context runs no job, and a
// cancel from inside a job leaves the rest of the range undispatched.
// The context's error wins over the jobs' own errors.
func TestForEachStopsDispatchOnCancel(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := forEach(ctx, 1000, workers, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
			t.Fatalf("workers=%d, canceled ctx: err %v after %d jobs; want context.Canceled after 0",
				workers, err, ran.Load())
		}

		ctx, cancel = context.WithCancel(context.Background())
		ran.Store(0)
		err = forEach(ctx, 1000, workers, func(i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			} else {
				<-ctx.Done()
			}
			return errors.New("job failed")
		})
		cancel()
		// Job 0 cancels while each other worker holds at most one job
		// blocked on ctx; one more dispatch can race the cancel.
		if limit := int64(workers + 1); !errors.Is(err, context.Canceled) || ran.Load() > limit {
			t.Fatalf("workers=%d, cancel in job 0: err %v after %d jobs; want context.Canceled after at most %d",
				workers, err, ran.Load(), limit)
		}
	}
}
