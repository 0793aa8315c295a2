package smiless_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"smiless"
)

// The root serving façade must be able to stand up a live runtime against
// any non-oracle system driver on a deterministic clock.
func TestServeFacade(t *testing.T) {
	app := smiless.ImageQuery()
	drv, err := smiless.NewSystemDriver(smiless.SystemSMIless, app, 2.0, smiless.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	clk := smiless.NewFakeClock()
	rt, err := smiless.NewRuntime(smiless.ServeConfig{App: app, SLA: 2.0, Clock: clk}, drv)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	ch, err := rt.Invoke(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	deadline := 10000
	for i := 0; ; i++ {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("live invocation failed: %+v", res)
			}
			if res.E2E <= 0 {
				t.Errorf("E2E = %v, want positive", res.E2E)
			}
			if gw := smiless.NewServingGateway(rt, "SMIless"); gw == nil {
				t.Error("gateway construction failed")
			}
			return
		default:
		}
		if i >= deadline {
			t.Fatal("invocation did not complete under the fake clock")
		}
		if rt.Quiesced() {
			clk.AdvanceToNext()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestServeFacadeRejectsOracle(t *testing.T) {
	if _, err := smiless.NewSystemDriver(smiless.SystemOPT, smiless.ImageQuery(), 2.0); err == nil {
		t.Error("OPT must be rejected as a live driver")
	}
}

// An invalid serving config is the façade's ConfigError, as an invalid
// simulator config is.
func TestNewRuntimeConfigError(t *testing.T) {
	drv, err := smiless.NewSystemDriver(smiless.SystemSMIless, smiless.ImageQuery(), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []smiless.ServeConfig{
		{App: smiless.ImageQuery(), SLA: -1},
		{App: smiless.ImageQuery(), BatchLinger: -1},
	} {
		if _, err := smiless.NewRuntime(cfg, drv); !errors.As(err, new(*smiless.ConfigError)) {
			t.Errorf("NewRuntime err = %v, want *smiless.ConfigError", err)
		}
	}
}

func TestWithWindowConfiguresSimulator(t *testing.T) {
	app := smiless.ImageQuery()
	drv, err := smiless.NewSystemDriver(smiless.SystemSMIless, app, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := smiless.NewSimulator(app, drv, 2.0, smiless.WithWindow(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Window(); got != 2.5 {
		t.Errorf("Window() = %v, want 2.5", got)
	}
	if _, err := smiless.NewSimulator(app, drv, 2.0, smiless.WithWindow(-1)); err == nil {
		t.Error("negative window should be rejected")
	}
}
