// Package directives exercises //lint:allow parsing and staleness: wrong
// analyzer names, missing reasons, unknown verbs, standalone and stale
// allows are all diagnostics themselves, and an invalid allow never
// suppresses.
package directives

func comparisons(a, b float64) {
	_ = a == b //lint:allow floateq exact sentinel comparison on unmodified inputs

	_ = a == b //lint:allow nosuchanalyzer exactness is fine // want `unknown analyzer "nosuchanalyzer"` `== on floating-point operands`

	_ = a != b //lint:allow floateq // want `missing reason` `!= on floating-point operands`

	_ = a < b //lint:allow floateq ordered comparisons never trip floateq // want `stale //lint:allow floateq`

	_ = a == b //lint:allow // want `missing analyzer name` `== on floating-point operands`

	//lint:frobnicate // want `unknown directive //lint:frobnicate`
	_ = a != b // want `!= on floating-point operands`
}

// A standalone directive is an error and suppresses nothing: an allow binds
// only to the line it trails.
func standalone(x, y float64) bool {
	//lint:allow floateq bit-pattern identity check on canonical constants // want `must trail the line it allows`
	return x == y // want `== on floating-point operands`
}
