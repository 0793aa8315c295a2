package forecast

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// pinCase is one row of the pinned-output table: a family under one role and
// budget, at one phase of its life. Its outputs are Predict(4), then, for an
// UpperBounder, PredictUpper(4), as float64 bit patterns.
type pinCase struct {
	name   string
	role   Role
	budget Budget
}

func (c pinCase) budgetName() string {
	if c.budget == BudgetOnline {
		return "online"
	}
	return "offline"
}

// label names the case's subtest.
func (c pinCase) label() string {
	return fmt.Sprintf("%s-%s-%s", c.name, c.role, c.budgetName())
}

func (c pinCase) key(phase string) string {
	return fmt.Sprintf("%s/%s/%s/%s", c.name, c.role, c.budgetName(), phase)
}

// pinOutputs reads f's forecasts at horizons 1 to 4: each horizon's forecast
// must be the prefix of the horizon-4 one, which is what is returned (with
// the upper bounds appended for an UpperBounder).
func pinOutputs(t *testing.T, key string, f Forecaster) []uint64 {
	t.Helper()
	var out []uint64
	read := func(label string, predict func(int) []float64) {
		full := predict(4)
		for h := 1; h < 4; h++ {
			for i, v := range predict(h) {
				if math.Float64bits(v) != math.Float64bits(full[i]) {
					t.Errorf("%s: %s(%d)[%d] = %v, not the prefix of %s(4) %v", key, label, h, i, v, label, full)
				}
			}
		}
		for _, v := range full {
			out = append(out, math.Float64bits(v))
		}
	}
	read("Predict", f.Predict)
	if ub, ok := f.(UpperBounder); ok {
		read("PredictUpper", ub.PredictUpper)
	}
	return out
}

// TestPinnedOutputs holds every family's forecasts, for each role and budget,
// to the bit patterns recorded for them: after the first Fit, after Updates,
// and after a refit on the Updated history.
func TestPinnedOutputs(t *testing.T) {
	series := map[Role][]Observation{
		RoleCount:        counts(136),
		RoleInterArrival: synth(136, 2, 1.2),
	}
	var missing []string
	for _, name := range Names() {
		for _, role := range []Role{RoleCount, RoleInterArrival} {
			for _, budget := range []Budget{BudgetOffline, BudgetOnline} {
				c := pinCase{name, role, budget}
				hist := series[role]
				t.Run(c.label(), func(t *testing.T) {
					f := MustNew(name, Config{Seed: 5, Role: role, Budget: budget})
					check := func(phase string) {
						key := c.key(phase)
						got := pinOutputs(t, key, f)
						want, ok := pinned[key]
						if !ok {
							missing = append(missing, fmt.Sprintf("%q: %#v,", key, got))
							return
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s: outputs %#v, pinned %#v", key, got, want)
						}
					}
					if err := f.Fit(hist[:120]); err != nil {
						t.Fatalf("%s: Fit: %v", c.key("fit"), err)
					}
					check("fit")
					for _, o := range hist[120:] {
						f.Update(o)
					}
					check("update")
					if err := f.Fit(hist); err != nil {
						t.Fatalf("%s: refit: %v", c.key("refit"), err)
					}
					check("refit")
				})
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no pinned outputs for:\n%s", strings.Join(missing, "\n"))
	}
}

// pinned was recorded from the forecasters as they stood before the model
// families were merged into their Forecaster types.
var pinned = map[string][]uint64{
	"arima/count/offline/fit":                 {0x4007f34505514122, 0x400a8a40767ac2a1, 0x400c6171b44b11c2, 0x400dadefdb6f7abe},
	"arima/count/offline/update":              {0x4020b57b79fc4ccc, 0x4021339d453fb3c8, 0x40219e9ff3eb5468, 0x402211981be57c13},
	"arima/count/offline/refit":               {0x4020adf4cd008645, 0x402117339138c219, 0x4021786e4d29ed82, 0x4021cd6bafb48bdf},
	"arima/count/online/fit":                  {0x4007f34505514122, 0x400a8a40767ac2a1, 0x400c6171b44b11c2, 0x400dadefdb6f7abe},
	"arima/count/online/update":               {0x4020b57b79fc4ccc, 0x4021339d453fb3c8, 0x40219e9ff3eb5468, 0x402211981be57c13},
	"arima/count/online/refit":                {0x4020adf4cd008645, 0x402117339138c219, 0x4021786e4d29ed82, 0x4021cd6bafb48bdf},
	"arima/interarrival/offline/fit":          {0x3ff144d5b75831d4, 0x3fef32c28772e196, 0x3fec0661403af8c3, 0x3fe967d17776f695},
	"arima/interarrival/offline/update":       {0x40081058ef811806, 0x4009347db08a001c, 0x4009e6e84d351c60, 0x400a2a081e9393e6},
	"arima/interarrival/offline/refit":        {0x40081058ef812e66, 0x4009347db08a24fd, 0x4009e6e84d3548c7, 0x400a2a081e93b356},
	"arima/interarrival/online/fit":           {0x3ff144d5b75831d4, 0x3fef32c28772e196, 0x3fec0661403af8c3, 0x3fe967d17776f695},
	"arima/interarrival/online/update":        {0x40081058ef811806, 0x4009347db08a001c, 0x4009e6e84d351c60, 0x400a2a081e9393e6},
	"arima/interarrival/online/refit":         {0x40081058ef812e66, 0x4009347db08a24fd, 0x4009e6e84d3548c7, 0x400a2a081e93b356},
	"fip/count/offline/fit":                   {0x401d84ca1108306b, 0x401eb8c52f602faf, 0x40204175d73fdd31, 0x4020f6028e39b11b},
	"fip/count/offline/update":                {0x402246dc9b533c72, 0x4021dac21d1ead33, 0x4021caf0cbbf6cac, 0x40219d58e331d4f9},
	"fip/count/offline/refit":                 {0x402246dc9b533c72, 0x4021dac21d1ead33, 0x4021caf0cbbf6cac, 0x40219d58e331d4f9},
	"fip/count/online/fit":                    {0x401d84ca1108306b, 0x401eb8c52f602faf, 0x40204175d73fdd31, 0x4020f6028e39b11b},
	"fip/count/online/update":                 {0x402246dc9b533c72, 0x4021dac21d1ead33, 0x4021caf0cbbf6cac, 0x40219d58e331d4f9},
	"fip/count/online/refit":                  {0x402246dc9b533c72, 0x4021dac21d1ead33, 0x4021caf0cbbf6cac, 0x40219d58e331d4f9},
	"fip/interarrival/offline/fit":            {0x400363b65db0259b, 0x4004c6531d99e7ce, 0x4006088261860ceb, 0x4007088a1a897f3a},
	"fip/interarrival/offline/update":         {0x40079ac5db27df63, 0x4007f341716ef1b7, 0x4007ff5ba9a7445e, 0x4007cbb01523bef8},
	"fip/interarrival/offline/refit":          {0x40079ac5db27df63, 0x4007f341716ef1b7, 0x4007ff5ba9a7445e, 0x4007cbb01523bef8},
	"fip/interarrival/online/fit":             {0x400363b65db0259b, 0x4004c6531d99e7ce, 0x4006088261860ceb, 0x4007088a1a897f3a},
	"fip/interarrival/online/update":          {0x40079ac5db27df63, 0x4007f341716ef1b7, 0x4007ff5ba9a7445e, 0x4007cbb01523bef8},
	"fip/interarrival/online/refit":           {0x40079ac5db27df63, 0x4007f341716ef1b7, 0x4007ff5ba9a7445e, 0x4007cbb01523bef8},
	"gbt/count/offline/fit":                   {0x400b5e5572f629d7, 0x40118320f260c40f, 0x4015603a7faa608a, 0x401965536fc29450},
	"gbt/count/offline/update":                {0x4020c5c2e3e639c5, 0x402306992e9fed60, 0x40247df25b1f133b, 0x4024c636a1df5741},
	"gbt/count/offline/refit":                 {0x4020a2651b04601c, 0x4022dd953e3a47aa, 0x40246b2d293d00ce, 0x4024894472814d2b},
	"gbt/count/online/fit":                    {0x400b5e5572f629d7, 0x40118320f260c40f, 0x4015603a7faa608a, 0x401965536fc29450},
	"gbt/count/online/update":                 {0x4020c5c2e3e639c5, 0x402306992e9fed60, 0x40247df25b1f133b, 0x4024c636a1df5741},
	"gbt/count/online/refit":                  {0x4020a2651b04601c, 0x4022dd953e3a47aa, 0x40246b2d293d00ce, 0x4024894472814d2b},
	"gbt/interarrival/offline/fit":            {0x3ff4fe92e02acb79, 0x3ff5c44441ed37a5, 0x3ff7ff22b19dfb46, 0x3ff8b4d2aa67ede0},
	"gbt/interarrival/offline/update":         {0x40076102253d1caf, 0x40093aa50f761828, 0x400b15313387bbf6, 0x400b3e8bc3642cbe},
	"gbt/interarrival/offline/refit":          {0x4006e7c54a027fbd, 0x4008788326205064, 0x400a53774f5eab39, 0x400b0b478a571da7},
	"gbt/interarrival/online/fit":             {0x3ff4fe92e02acb79, 0x3ff5c44441ed37a5, 0x3ff7ff22b19dfb46, 0x3ff8b4d2aa67ede0},
	"gbt/interarrival/online/update":          {0x40076102253d1caf, 0x40093aa50f761828, 0x400b15313387bbf6, 0x400b3e8bc3642cbe},
	"gbt/interarrival/online/refit":           {0x4006e7c54a027fbd, 0x4008788326205064, 0x400a53774f5eab39, 0x400b0b478a571da7},
	"histogram/count/offline/fit":             {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/count/offline/update":          {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/count/offline/refit":           {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/count/online/fit":              {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/count/online/update":           {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/count/online/refit":            {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667, 0x402a666666666667},
	"histogram/interarrival/offline/fit":      {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"histogram/interarrival/offline/update":   {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"histogram/interarrival/offline/refit":    {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"histogram/interarrival/online/fit":       {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"histogram/interarrival/online/update":    {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"histogram/interarrival/online/refit":     {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a, 0x401199999999999a},
	"lstm/count/offline/fit":                  {0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000},
	"lstm/count/offline/update":               {0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000, 0x4026000000000000},
	"lstm/count/offline/refit":                {0x4022000000000000, 0x4022000000000000, 0x4024000000000000, 0x4024000000000000, 0x4022000000000000, 0x4022000000000000, 0x4024000000000000, 0x4024000000000000},
	"lstm/count/online/fit":                   {0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000, 0x401c000000000000},
	"lstm/count/online/update":                {0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000},
	"lstm/count/online/refit":                 {0x4022000000000000, 0x4022000000000000, 0x4022000000000000, 0x4022000000000000, 0x4022000000000000, 0x4022000000000000, 0x4022000000000000, 0x4022000000000000},
	"lstm/interarrival/offline/fit":           {0x3ff475c963f27794, 0x3ff450696fed6e49, 0x3ff45057d6b0b48a, 0x3ff4509889fa87cd, 0x3ff475c963f27794, 0x3ff450696fed6e49, 0x3ff45057d6b0b48a, 0x3ff4509889fa87cd},
	"lstm/interarrival/offline/update":        {0x3ff27c49cca33027, 0x3ff49f1009b4bc0a, 0x3ff48f8c6262d052, 0x3ff49150cfe9c9e9, 0x3ff27c49cca33027, 0x3ff49f1009b4bc0a, 0x3ff48f8c6262d052, 0x3ff49150cfe9c9e9},
	"lstm/interarrival/offline/refit":         {0x3ff3249670468b67, 0x3ff1cb75d005cf52, 0x3ff15eced0c9caa6, 0x3ff123fd86063a88, 0x3ff3249670468b67, 0x3ff1cb75d005cf52, 0x3ff15eced0c9caa6, 0x3ff123fd86063a88},
	"lstm/interarrival/online/fit":            {0x3ffa8fd95bf51779, 0x3ffb3174e4d85783, 0x3ffb95c87fad34e5, 0x3ffbd636cfa235e9, 0x3ffa8fd95bf51779, 0x3ffb3174e4d85783, 0x3ffb95c87fad34e5, 0x3ffbd636cfa235e9},
	"lstm/interarrival/online/update":         {0x3ffd876ac595c306, 0x3ffc70de830dd787, 0x3ffbc3683692012f, 0x3ffb4afc12c0b723, 0x3ffd876ac595c306, 0x3ffc70de830dd787, 0x3ffbc3683692012f, 0x3ffb4afc12c0b723},
	"lstm/interarrival/online/refit":          {0x40026782e1a2346f, 0x4001a0b555947cb3, 0x4000999181b91889, 0x3ffe9acea827874b, 0x40026782e1a2346f, 0x4001a0b555947cb3, 0x4000999181b91889, 0x3ffe9acea827874b},
	"naive/count/offline/fit":                 {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000},
	"naive/count/offline/update":              {0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000},
	"naive/count/offline/refit":               {0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000},
	"naive/count/online/fit":                  {0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000},
	"naive/count/online/update":               {0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000},
	"naive/count/online/refit":                {0x4020000000000000, 0x4020000000000000, 0x4020000000000000, 0x4020000000000000},
	"naive/interarrival/offline/fit":          {0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7},
	"naive/interarrival/offline/update":       {0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18},
	"naive/interarrival/offline/refit":        {0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18},
	"naive/interarrival/online/fit":           {0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7, 0x3ff2da8d8dee08a7},
	"naive/interarrival/online/update":        {0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18},
	"naive/interarrival/online/refit":         {0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18, 0x40068197e490dd18},
	"transformer/count/offline/fit":           {0x4011b6a27490aa06, 0x4011d584cf4d30e3, 0x4011e0cd9ce39151, 0x40123350febad653, 0x4011b6a27490aa06, 0x4011d584cf4d30e3, 0x4011e0cd9ce39151, 0x40123350febad653},
	"transformer/count/offline/update":        {0x40158e88de727cfe, 0x40168fc9bf5c71be, 0x4017e6a2f18e305f, 0x4019936303b2443c, 0x4025b5bc06df9e36, 0x4026b8d0b4f90601, 0x402812195ab89e54, 0x4029c1e515a31c40},
	"transformer/count/offline/refit":         {0x401a8057caa4985d, 0x401bee081eeb3a56, 0x401dcde5810e6e2a, 0x402016b75fc4058e, 0x402ab088c0f04806, 0x402c20d211771562, 0x402e04180f503f23, 0x403033f909ab63c3},
	"transformer/count/online/fit":            {0x4011b6a27490aa06, 0x4011d584cf4d30e3, 0x4011e0cd9ce39151, 0x40123350febad653, 0x4011b6a27490aa06, 0x4011d584cf4d30e3, 0x4011e0cd9ce39151, 0x40123350febad653},
	"transformer/count/online/update":         {0x40158e88de727cfe, 0x40168fc9bf5c71be, 0x4017e6a2f18e305f, 0x4019936303b2443c, 0x4025b5bc06df9e36, 0x4026b8d0b4f90601, 0x402812195ab89e54, 0x4029c1e515a31c40},
	"transformer/count/online/refit":          {0x401a8057caa4985d, 0x401bee081eeb3a56, 0x401dcde5810e6e2a, 0x402016b75fc4058e, 0x402ab088c0f04806, 0x402c20d211771562, 0x402e04180f503f23, 0x403033f909ab63c3},
	"transformer/interarrival/offline/fit":    {0x3ffc0fb26cef81e3, 0x3ffc83ebb5340abd, 0x3ffd0e31d77632c3, 0x3ffda92b45464e49, 0x3ffc0fb26cef81e3, 0x3ffc83ebb5340abd, 0x3ffd0e31d77632c3, 0x3ffda92b45464e49},
	"transformer/interarrival/offline/update": {0x40016b98512b4cae, 0x400218fee4f7bf49, 0x4002f340cc27c93e, 0x4003f9ded01f4a87, 0x400a9eff86d5228f, 0x400ba7fbaa3dff32, 0x400cf584390b75a6, 0x400e86d6cc14109b},
	"transformer/interarrival/offline/refit":  {0x40016b98512b4cae, 0x400218fee4f7bf49, 0x4002f340cc27c93e, 0x4003f9ded01f4a87, 0x400a9eff86d5228f, 0x400ba7fbaa3dff32, 0x400cf584390b75a6, 0x400e86d6cc14109b},
	"transformer/interarrival/online/fit":     {0x3ffc0fb26cef81e3, 0x3ffc83ebb5340abd, 0x3ffd0e31d77632c3, 0x3ffda92b45464e49, 0x3ffc0fb26cef81e3, 0x3ffc83ebb5340abd, 0x3ffd0e31d77632c3, 0x3ffda92b45464e49},
	"transformer/interarrival/online/update":  {0x40016b98512b4cae, 0x400218fee4f7bf49, 0x4002f340cc27c93e, 0x4003f9ded01f4a87, 0x400a9eff86d5228f, 0x400ba7fbaa3dff32, 0x400cf584390b75a6, 0x400e86d6cc14109b},
	"transformer/interarrival/online/refit":   {0x40016b98512b4cae, 0x400218fee4f7bf49, 0x4002f340cc27c93e, 0x4003f9ded01f4a87, 0x400a9eff86d5228f, 0x400ba7fbaa3dff32, 0x400cf584390b75a6, 0x400e86d6cc14109b},
}
