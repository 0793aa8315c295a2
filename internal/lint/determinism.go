package lint

import (
	"go/ast"
	"go/types"
)

// bannedTimeFuncs are package-level time functions that read the wall clock
// or block on it. Deterministic packages take simulated time as a parameter
// instead; experiments and CLIs (untagged) may still measure wall time.
var bannedTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "blocks on the wall clock",
	"Tick":      "ticks on the wall clock",
	"NewTimer":  "ticks on the wall clock",
	"NewTicker": "ticks on the wall clock",
	"AfterFunc": "runs off the wall clock",
}

// bannedRandFuncs are the math/rand package-level functions drawing from the
// process-global, possibly auto-seeded source. Deterministic code threads an
// explicit *rand.Rand (mathx.NewRand) instead.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// Determinism enforces the simulator's reproducibility contract in packages
// tagged //lint:deterministic: no wall-clock reads, no global math/rand, no
// sleeping, no goroutine spawning (scheduler interleaving is nondeterministic
// and unsynchronized accumulation reorders float arithmetic). A finding the
// author can argue away takes the line-scoped
// //lint:allow determinism <reason> like any other analyzer's.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/Since/Sleep, global math/rand and goroutine spawning in packages tagged //lint:deterministic",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !pass.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in deterministic package %s: scheduler interleaving is nondeterministic; restructure as sequential or move the concurrency out of the package", pass.Pkg.Name())
			case *ast.SelectorExpr:
				pkgPath, ok := selectorPackage(pass.TypesInfo, n)
				if !ok {
					return true
				}
				switch pkgPath {
				case "time":
					if why, bad := bannedTimeFuncs[n.Sel.Name]; bad {
						pass.Reportf(n.Pos(), "time.%s %s: deterministic package %s must take simulated time as input (the simulator clock), not sample its own", n.Sel.Name, why, pass.Pkg.Name())
					}
				case "math/rand", "math/rand/v2":
					if bannedRandFuncs[n.Sel.Name] {
						pass.Reportf(n.Pos(), "rand.%s draws from the global source: thread an explicit *rand.Rand (mathx.NewRand(seed)) through deterministic package %s", n.Sel.Name, pass.Pkg.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// selectorPackage resolves sel.X to an imported package path when sel is a
// qualified identifier (pkg.Name), as opposed to a field or method access.
func selectorPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
