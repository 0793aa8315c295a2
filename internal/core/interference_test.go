package core

import (
	"reflect"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/hardware"
)

// Interference off — nil map, empty map, or all factors exactly 1 — must
// produce plans byte-identical to a request that never heard of the field.
func TestInterferenceOffByteIdentical(t *testing.T) {
	app := apps.VoiceAssistant()
	profs := profilesFor(app)
	base := Request{Graph: app.Graph, Profiles: profs, SLA: 2.0, IT: 5, Batch: 1}

	o := New(hardware.DefaultCatalog())
	want, err := o.Optimize(base)
	if err != nil {
		t.Fatal(err)
	}

	ones := make(map[dag.NodeID]float64)
	for _, id := range app.Graph.Nodes() {
		ones[id] = 1.0
	}
	for name, m := range map[string]map[dag.NodeID]float64{
		"nil": nil, "empty": {}, "all-ones": ones,
	} {
		req := base
		req.Interference = m
		got, err := New(hardware.DefaultCatalog()).Optimize(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("%s interference map changed the plan:\n got %v\nwant %v", name, got.Plan, want.Plan)
		}
		if !reflect.DeepEqual(got.Eval, want.Eval) {
			t.Errorf("%s interference map changed the evaluation", name)
		}
	}
}

// A large interference factor on one function must change what the search
// concludes: inflated times raise the plan's evaluated latency/cost or
// shift its configs.
func TestInterferenceFactorChangesSearch(t *testing.T) {
	app := apps.Pipeline(4)
	profs := profilesFor(app)
	base := Request{Graph: app.Graph, Profiles: profs, SLA: 1.2, IT: 4, Batch: 1}

	blind, err := New(hardware.DefaultCatalog()).Optimize(base)
	if err != nil {
		t.Fatal(err)
	}

	req := base
	req.Interference = map[dag.NodeID]float64{}
	for _, id := range app.Graph.Nodes() {
		req.Interference[id] = 2.5
	}
	aware, err := New(hardware.DefaultCatalog()).Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(aware.Plan, blind.Plan) && reflect.DeepEqual(aware.Eval, blind.Eval) {
		t.Error("2.5x interference on every function left the plan and evaluation untouched")
	}
}

// The plan-level memo must key on the interference fingerprint: the same
// operating point with different factors is a different problem.
func TestInterferenceCacheDimension(t *testing.T) {
	app := apps.Pipeline(3)
	profs := profilesFor(app)
	o := New(hardware.DefaultCatalog())
	base := Request{Graph: app.Graph, Profiles: profs, SLA: 1.5, IT: 5, Batch: 1}

	if _, err := o.Optimize(base); err != nil {
		t.Fatal(err)
	}
	// Same point again: plan-cache hit.
	res, err := o.Optimize(base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Search.FromCache {
		t.Fatal("identical blind request should hit the plan memo")
	}
	// Same point with interference: must NOT be served from the blind memo.
	req := base
	req.Interference = map[dag.NodeID]float64{app.Graph.Nodes()[0]: 2.0}
	res, err = o.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Search.FromCache {
		t.Error("interference request was served from the blind plan memo")
	}
	// And the interference point memoizes on its own key.
	res, err = o.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Search.FromCache {
		t.Error("repeated interference request should hit its own memo")
	}
}

func TestInterferenceFingerprint(t *testing.T) {
	l := apps.Pipeline(2).Graph.Layout()
	if got := interferenceFingerprint(l, []float64{1, 1}); got != "" {
		t.Errorf("all-ones fingerprint = %q, want empty", got)
	}
	a := interferenceFingerprint(l, []float64{1.5, 1})
	b := interferenceFingerprint(l, []float64{1, 1.5})
	if a == "" || a == b {
		t.Errorf("fingerprints %q and %q must be set and tell which function carries the factor", a, b)
	}
}
