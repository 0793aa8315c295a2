package forecast

import (
	"fmt"
	"sort"
	"strings"
)

// Default is the paper's forecaster family, the LSTM pair (bucket classifier
// + dual-input inter-arrival regressor), which the full SMIless
// configuration selects.
const Default = "lstm"

// registry maps family names to constructors. The families of this package
// register below; external packages extend it via Register.
var registry = map[string]Constructor{}

func init() {
	Register("lstm", func(cfg Config) Forecaster {
		if cfg.Role == RoleInterArrival {
			return newIATLSTM(cfg, true)
		}
		return newCountLSTM(cfg)
	})
	Register("arima", func(cfg Config) Forecaster { return &arimaForecaster{cfg: cfg, p: 8} })
	Register("fip", func(cfg Config) Forecaster { return &fipForecaster{cfg: cfg} })
	Register("gbt", func(cfg Config) Forecaster { return &gbtForecaster{cfg: cfg} })
	Register("histogram", func(cfg Config) Forecaster { return &histogramForecaster{cfg: cfg} })
	Register("naive", func(cfg Config) Forecaster { return &naiveForecaster{cfg: cfg} })
	Register("transformer", func(cfg Config) Forecaster { return newTransformer(cfg) })
}

// Register adds a forecaster family under name. It panics on an empty name
// or a duplicate registration — both are programming errors caught at init.
func Register(name string, ctor Constructor) {
	if name == "" || ctor == nil {
		panic("forecast: Register with empty name or nil constructor")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("forecast: duplicate registration of %q", name))
	}
	registry[name] = ctor
}

// Names lists the registered families, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// UnknownError reports a lookup of an unregistered forecaster family.
type UnknownError struct {
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("forecast: unknown forecaster %q (registered: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// Lookup resolves a family name to its constructor. Unknown names, the empty
// one included, return a *UnknownError.
func Lookup(name string) (Constructor, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, &UnknownError{Name: name, Known: Names()}
	}
	return ctor, nil
}

// New builds a forecaster of the named family.
func New(name string, cfg Config) (Forecaster, error) {
	ctor, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return ctor(cfg), nil
}

// MustNew is New for known-good names; it panics on lookup failure.
func MustNew(name string, cfg Config) Forecaster {
	f, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return f
}
