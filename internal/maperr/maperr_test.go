package maperr

import (
	"context"
	"errors"
	"testing"
)

func TestNoMappingPreservesMessageAndClass(t *testing.T) {
	err := NoMapping("core: no mapping for %s on %s up to II=%d", "k", "4x4", 7)
	if got, want := err.Error(), "core: no mapping for k on 4x4 up to II=7"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if !errors.Is(err, ErrNoMapping) {
		t.Fatal("not ErrNoMapping")
	}
	if errors.Is(err, ErrAborted) {
		t.Fatal("must not be ErrAborted")
	}
}

func TestAbortedCarriesContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Aborted(ctx.Err(), "core: mapping %s aborted: %v", "k", ctx.Err())
	if got, want := err.Error(), "core: mapping k aborted: context canceled"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatal("not ErrAborted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("ctx error lost from the wrap chain")
	}
}

func TestWrapDropsNilCauses(t *testing.T) {
	err := Wrap([]error{nil, ErrNoMapping, nil}, "msg")
	if !errors.Is(err, ErrNoMapping) {
		t.Fatal("cause lost")
	}
	if errors.Is(err, ErrWorkerPanic) {
		t.Fatal("phantom cause")
	}
}

func TestInvalidMappingError(t *testing.T) {
	inner := errors.New("mapping: PE 3 uses 5 registers, file holds 4")
	err := error(&InvalidMappingError{Mapper: "core", What: "mapping", Err: inner})
	if got, want := err.Error(), "core: internal error, produced invalid mapping: "+inner.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	var ime *InvalidMappingError
	if !errors.As(err, &ime) || ime.Mapper != "core" {
		t.Fatal("errors.As failed")
	}
	if !errors.Is(err, inner) {
		t.Fatal("validator verdict lost from the wrap chain")
	}
}

func TestWorkerPanicError(t *testing.T) {
	err := error(&WorkerPanicError{Worker: "parallel worker 1 at index 3", Value: "boom", Stack: []byte("stack")})
	if got, want := err.Error(), "parallel worker 1 at index 3 panicked: boom"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatal("not ErrWorkerPanic")
	}
	wrappedUp := Wrap([]error{ErrNoMapping, err}, "core: no mapping")
	if !errors.Is(wrappedUp, ErrWorkerPanic) || !errors.Is(wrappedUp, ErrNoMapping) {
		t.Fatal("multi-cause wrap lost a class")
	}
	var wp *WorkerPanicError
	if !errors.As(wrappedUp, &wp) || wp.Worker != "parallel worker 1 at index 3" {
		t.Fatal("typed panic error unreachable through the wrap")
	}
}
