package analysis

import (
	"rtle/internal/analysis/abortpath"
	"rtle/internal/analysis/framework"
	"rtle/internal/analysis/loggate"
	"rtle/internal/analysis/txbody"
)

// Analyzers returns the full suite in its canonical order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		txbody.Analyzer,
		abortpath.Analyzer,
		loggate.Analyzer,
	}
}
