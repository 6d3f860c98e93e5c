package net

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dima/internal/gen"
	"dima/internal/msg"
)

// chatterNode broadcasts every round until round `lifetime`, so a run
// lasts a known number of rounds — long enough to cancel mid-flight.
// It reuses one outbox, so its steps allocate nothing.
type chatterNode struct {
	id       int
	lifetime int
	round    int
	out      []msg.Message
}

func (c *chatterNode) ID() int { return c.id }

func (c *chatterNode) Step(round int, inbox []msg.Message) []msg.Message {
	c.round = round
	if round >= c.lifetime {
		return nil
	}
	c.out = append(c.out[:0], msg.Message{Kind: msg.KindUpdate, From: c.id, To: msg.Broadcast, Edge: -1, Color: -1})
	return c.out
}

func (c *chatterNode) Done() bool { return c.round >= c.lifetime }

func chatterNodes(n, lifetime int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &chatterNode{id: i, lifetime: lifetime}
	}
	return nodes
}

// ctxEngines maps each engine to a run of chatter nodes whose
// context rides in Config.Ctx.
func ctxEngines() map[string]func(ctx context.Context, cfg Config) (Result, error) {
	g := gen.Cycle(8)
	withCtx := func(run Engine) func(ctx context.Context, cfg Config) (Result, error) {
		return func(ctx context.Context, cfg Config) (Result, error) {
			cfg.Ctx = ctx
			return run(g, chatterNodes(8, 20), cfg)
		}
	}
	return map[string]func(ctx context.Context, cfg Config) (Result, error){
		"sync":          withCtx(RunSync),
		"shard":         withCtx(shardWith(3)),
		"shard-oversub": withCtx(shardWith(oversubscribed())),
	}
}

func TestCancelBeforeStartAbortsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range ctxEngines() {
		res, err := run(ctx, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Aborted || res.Terminated {
			t.Fatalf("%s: pre-canceled run: %+v", name, res)
		}
		if res.Rounds != 0 || res.Messages != 0 {
			t.Fatalf("%s: pre-canceled run did work: %+v", name, res)
		}
	}
}

// TestCancelMidRunIdenticalAcrossEngines cancels deterministically —
// from the round observer, which all engines invoke sequentially at the
// round barrier — and demands the identical partial Result everywhere.
func TestCancelMidRunIdenticalAcrossEngines(t *testing.T) {
	const cancelRound = 5
	var want Result
	for i, name := range []string{"sync", "shard", "shard-oversub"} {
		run := ctxEngines()[name]
		ctx, cancel := context.WithCancel(context.Background())
		res, err := run(ctx, Config{Observe: func(rt RoundTraffic) {
			if rt.Round == cancelRound {
				cancel()
			}
		}})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Aborted || res.Terminated {
			t.Fatalf("%s: canceled run: %+v", name, res)
		}
		// The cancel lands after round cancelRound completes, before the
		// next one starts.
		if res.Rounds != cancelRound+1 {
			t.Fatalf("%s: stopped after %d rounds, want %d", name, res.Rounds, cancelRound+1)
		}
		if i == 0 {
			want = res
			continue
		}
		if res != want {
			t.Fatalf("%s: partial result %+v, sync says %+v", name, res, want)
		}
	}
}

func TestCancelAfterDoneReportsTerminated(t *testing.T) {
	// A cancel landing in the same round the nodes finish loses:
	// Terminated wins and Aborted stays false (they are exclusive).
	const lifetime = 6
	g := gen.Cycle(8)
	for name, engine := range map[string]Engine{"sync": RunSync, "shard": RunShard, "shard-3": shardWith(3)} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{Ctx: ctx, Observe: func(rt RoundTraffic) {
			if rt.Round == lifetime {
				cancel()
			}
		}}
		res, err := engine(g, chatterNodes(8, lifetime), cfg)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Terminated || res.Aborted {
			t.Fatalf("%s: same-round cancel: %+v", name, res)
		}
	}
}

func TestContextlessRunsUnchanged(t *testing.T) {
	// A nil Config.Ctx must behave byte-identically to an explicit
	// background context.
	g := gen.Cycle(8)
	for name, run := range engines() {
		plain, err1 := run(g, chatterNodes(8, 10), Config{})
		withCtx, err2 := run(g, chatterNodes(8, 10), Config{Ctx: context.Background()})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", name, err1, err2)
		}
		if plain != withCtx {
			t.Fatalf("%s: plain %+v != ctx %+v", name, plain, withCtx)
		}
		if !plain.Terminated || plain.Aborted {
			t.Fatalf("%s: %+v", name, plain)
		}
	}
}

// TestCancelLeaksNoGoroutines proves a canceled run tears its node and
// worker goroutines down: after cancel, the goroutine count returns to
// its baseline.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	g := gen.Cycle(64)
	for name, run := range map[string]func(ctx context.Context, cfg Config) (Result, error){
		"shard": func(ctx context.Context, cfg Config) (Result, error) {
			cfg.Ctx, cfg.Workers = ctx, 4
			return RunShard(g, chatterNodes(64, 1000), cfg)
		},
		"shard-oversub": func(ctx context.Context, cfg Config) (Result, error) {
			cfg.Ctx, cfg.Workers = ctx, oversubscribed()
			return RunShard(g, chatterNodes(64, 1000), cfg)
		},
	} {
		runtime.GC()
		base := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := run(ctx, Config{Observe: func(rt RoundTraffic) {
				if rt.Round == 3 {
					cancel()
				}
			}})
			_ = res
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// Engines join their goroutines before returning, but give the
		// scheduler a moment under -race before declaring a leak.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%s: %d goroutines after cancel, baseline %d", name, got, base)
		}
	}
}
