package analysis

import (
	"rtle/internal/analysis/abortpath"
	"rtle/internal/analysis/barrierdiscipline"
	"rtle/internal/analysis/framework"
	"rtle/internal/analysis/guardmisuse"
	"rtle/internal/analysis/loggate"
	"rtle/internal/analysis/txbody"
)

// Analyzers returns the full rtlevet suite in its canonical order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		txbody.Analyzer,
		abortpath.Analyzer,
		barrierdiscipline.Analyzer,
		loggate.Analyzer,
		guardmisuse.Analyzer,
	}
}
