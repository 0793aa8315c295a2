// Package hardware models the heterogeneous resource configurations a
// serverless function instance can run on, and their prices.
//
// Following the paper's experimental setup (§VII-A):
//
//   - CPU containers come in 1, 2, 4, 8 or 16 cores, priced like AWS c6g at
//     $0.034 per core-hour.
//   - GPU containers are allocated in MPS units of 10% of one GPU; a 10%
//     slice costs 10% of an AWS p3.2xlarge, i.e. $0.306 per hour, so a full
//     GPU is $3.06/hour (8x-16x the CPU unit cost, matching §I and Fig. 2).
package hardware

import (
	"fmt"
	"sort"
)

// Kind distinguishes the two backend families.
type Kind int

const (
	// CPU backends are parameterized by core count.
	CPU Kind = iota
	// GPU backends are parameterized by the MPS share of one device.
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config is one hardware configuration choice for a function instance: the
// paper's ⋆_k. It is a small value type used as a map key.
type Config struct {
	Kind Kind
	// Cores is the CPU core count (CPU kind only).
	Cores int
	// GPUShare is the fraction of one GPU in percent, a multiple of 10
	// (GPU kind only).
	GPUShare int
}

// String implements fmt.Stringer, e.g. "CPU-4c" or "GPU-30%".
func (c Config) String() string {
	if c.Kind == CPU {
		return fmt.Sprintf("CPU-%dc", c.Cores)
	}
	return fmt.Sprintf("GPU-%d%%", c.GPUShare)
}

// IsZero reports whether c is the zero Config (no configuration chosen).
func (c Config) IsZero() bool { return c == Config{} }

// Pricing captures per-unit costs. All costs in this codebase are dollars
// and all durations seconds unless stated otherwise.
type Pricing struct {
	// CPUPerCoreHour is the price of one CPU core for one hour.
	CPUPerCoreHour float64
	// GPUPerHour is the price of one full GPU for one hour.
	GPUPerHour float64
}

// DefaultPricing matches the paper: $0.034/core-hour CPU (AWS c6g),
// $3.06/hour for one full GPU ($0.306 per 10% MPS slice of a p3.2xlarge).
var DefaultPricing = Pricing{CPUPerCoreHour: 0.034, GPUPerHour: 3.06}

// InvalidConfigError reports a Config whose parameters cannot be priced:
// a non-positive core count or a GPU share outside (0, 100].
type InvalidConfigError struct {
	Config Config
	Reason string
}

func (e *InvalidConfigError) Error() string {
	return fmt.Sprintf("hardware: invalid config %v: %s", e.Config, e.Reason)
}

// Validate checks that c is priceable: CPU configs need Cores >= 1, GPU
// configs a share in (0, 100].
func (c Config) Validate() error {
	switch c.Kind {
	case CPU:
		if c.Cores <= 0 {
			return &InvalidConfigError{Config: c, Reason: fmt.Sprintf("core count %d must be positive", c.Cores)}
		}
	case GPU:
		if c.GPUShare <= 0 || c.GPUShare > 100 {
			return &InvalidConfigError{Config: c, Reason: fmt.Sprintf("GPU share %d%% must be in (0, 100]", c.GPUShare)}
		}
	default:
		return &InvalidConfigError{Config: c, Reason: fmt.Sprintf("unknown kind %v", c.Kind)}
	}
	return nil
}

// UnitCostChecked returns U(⋆) or a *InvalidConfigError for unpriceable
// configs (zero/negative cores, GPU share outside (0, 100]).
func (p Pricing) UnitCostChecked(c Config) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	switch c.Kind {
	case CPU:
		return p.CPUPerCoreHour * float64(c.Cores) / 3600, nil
	case GPU:
		return p.GPUPerHour * float64(c.GPUShare) / 100 / 3600, nil
	default:
		panic(fmt.Sprintf("hardware: unknown kind %v", c.Kind))
	}
}

// UnitCost returns U(⋆): dollars per second of wall-clock time the instance
// exists (initializing, busy or kept alive — serverless providers charge for
// allocated capacity). It panics on unpriceable configs — billing a
// zero-core or out-of-range-share instance silently was a bug; callers
// with unvalidated input use UnitCostChecked.
func (p Pricing) UnitCost(c Config) float64 {
	u, err := p.UnitCostChecked(c)
	if err != nil {
		panic(err)
	}
	return u
}

// Catalog is the ordered set of configurations available to the optimizer:
// the paper's C. Order is ascending unit cost.
type Catalog struct {
	Configs []Config
	Pricing Pricing
}

// DefaultCatalog returns the paper's configuration space: CPU with
// {1,2,4,8,16} cores and GPU shares {10%..100%} in 10% steps, with default
// pricing, sorted by ascending unit cost.
func DefaultCatalog() *Catalog {
	var cs []Config
	for _, cores := range []int{1, 2, 4, 8, 16} {
		cs = append(cs, Config{Kind: CPU, Cores: cores})
	}
	for share := 10; share <= 100; share += 10 {
		cs = append(cs, Config{Kind: GPU, GPUShare: share})
	}
	cat := &Catalog{Configs: cs, Pricing: DefaultPricing}
	cat.sortByCost()
	return cat
}

// CPUOnlyCatalog returns a catalog restricted to CPU configurations; used by
// the SMIless-Homo ablation (Fig. 13).
func CPUOnlyCatalog() *Catalog {
	var cs []Config
	for _, cores := range []int{1, 2, 4, 8, 16} {
		cs = append(cs, Config{Kind: CPU, Cores: cores})
	}
	cat := &Catalog{Configs: cs, Pricing: DefaultPricing}
	cat.sortByCost()
	return cat
}

func (c *Catalog) sortByCost() {
	sort.SliceStable(c.Configs, func(i, j int) bool {
		ci, cj := c.Pricing.UnitCost(c.Configs[i]), c.Pricing.UnitCost(c.Configs[j])
		if ci != cj { //lint:allow floateq comparator tie-break: exact equality decides when the config-name ordering applies
			return ci < cj
		}
		return c.Configs[i].String() < c.Configs[j].String()
	})
}

// Len returns the number of configurations (the paper's M).
func (c *Catalog) Len() int { return len(c.Configs) }

// UnitCost returns U(⋆) under the catalog's pricing.
func (c *Catalog) UnitCost(cfg Config) float64 { return c.Pricing.UnitCost(cfg) }

// Contains reports whether cfg is in the catalog.
func (c *Catalog) Contains(cfg Config) bool {
	for _, x := range c.Configs {
		if x == cfg {
			return true
		}
	}
	return false
}

// NodeSpec describes one physical machine in the cluster.
type NodeSpec struct {
	Cores int // schedulable CPU cores
	GPUs  int // whole GPUs; each divisible into ten 10% MPS slices
}

// ClusterSpec describes the evaluation cluster. The paper uses 8 machines,
// each with two 52-core Xeons (104 cores) and one RTX 3090.
type ClusterSpec struct {
	Nodes []NodeSpec
}

// DefaultCluster returns the paper's 8-machine cluster.
func DefaultCluster() ClusterSpec { return uniformCluster(8, NodeSpec{Cores: 104, GPUs: 1}) }

// UnboundedCluster returns n nodes whose capacity never binds: a pool in
// which only node health decides where a launch can place.
func UnboundedCluster(n int) ClusterSpec {
	return uniformCluster(n, NodeSpec{Cores: 1 << 20, GPUs: 1 << 10})
}

func uniformCluster(n int, spec NodeSpec) ClusterSpec {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = spec
	}
	return ClusterSpec{Nodes: nodes}
}

// TotalCores returns the cluster-wide schedulable core count.
func (c ClusterSpec) TotalCores() int {
	n := 0
	for _, s := range c.Nodes {
		n += s.Cores
	}
	return n
}

// TotalGPUShares returns the cluster-wide GPU capacity in 10% MPS slices.
func (c ClusterSpec) TotalGPUShares() int {
	n := 0
	for _, s := range c.Nodes {
		n += s.GPUs * 10
	}
	return n
}
