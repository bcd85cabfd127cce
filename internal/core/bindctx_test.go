package core

import (
	"context"
	"errors"
	"testing"
)

// BindContext is the single ctx adapter every entry point funnels through;
// pin its contract directly: never-cancellable contexts must not install a
// hook, cancellation must surface through Interrupt, and a pre-existing
// hook must keep running after the ctx check.
func TestBindContext(t *testing.T) {
	var o Options
	if got := o.BindContext(context.Background()); got.Interrupt != nil {
		t.Error("Background ctx installed an interrupt hook")
	}
	if got := o.BindContext(nil); got.Interrupt != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Error("nil ctx installed an interrupt hook")
	}

	ctx, cancel := context.WithCancel(context.Background())
	bound := o.BindContext(ctx)
	if bound.Interrupt == nil {
		t.Fatal("cancellable ctx installed no hook")
	}
	if err := bound.Interrupt(); err != nil {
		t.Errorf("live ctx: interrupt = %v, want nil", err)
	}
	cancel()
	if err := bound.Interrupt(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: interrupt = %v, want context.Canceled", err)
	}

	// Chaining: the previous hook runs after a live ctx passes.
	sentinel := errors.New("prev hook")
	prev := Options{Interrupt: func() error { return sentinel }}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	chained := prev.BindContext(ctx2)
	if err := chained.Interrupt(); !errors.Is(err, sentinel) {
		t.Errorf("chained interrupt = %v, want sentinel", err)
	}
	cancel2()
	if err := chained.Interrupt(); !errors.Is(err, context.Canceled) {
		t.Errorf("chained cancelled = %v, want context.Canceled (ctx checked first)", err)
	}
}
