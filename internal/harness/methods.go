package harness

import (
	"fmt"
	"strconv"
	"strings"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/norec"
	"rtle/internal/rhnorec"
)

// MethodNames lists every synchronization method of the paper's Fig. 5, in
// its legend order.
var MethodNames = []string{
	"Lock", "NOrec", "RHNOrec", "TLE", "RW-TLE",
	"FG-TLE(1)", "FG-TLE(4)", "FG-TLE(16)", "FG-TLE(256)",
	"FG-TLE(1024)", "FG-TLE(4096)", "FG-TLE(8192)",
}

// RefinedNames lists the refined-TLE variants of Fig. 6.
var RefinedNames = []string{
	"RW-TLE", "FG-TLE(1)", "FG-TLE(4)", "FG-TLE(16)", "FG-TLE(256)",
	"FG-TLE(1024)", "FG-TLE(4096)", "FG-TLE(8192)",
}

// BuildMethod constructs a method by its Fig. 5 legend name over m.
// Recognized: "Lock", "TLE", "HLE", "RW-TLE", "FG-TLE(<power-of-two>)",
// "FG-TLE(adaptive)", "ALE(<power-of-two>)", "NOrec", "RHNOrec".
func BuildMethod(name string, m *mem.Memory, p core.Policy) (core.Method, error) {
	switch name {
	case "Lock":
		return core.NewLock(m, p), nil
	case "TLE":
		return core.NewTLE(m, p), nil
	case "HLE":
		return core.NewHLE(m, p), nil
	case "RW-TLE":
		return core.NewRWTLE(m, p), nil
	case "NOrec":
		return norec.New(m, p), nil
	case "RHNOrec":
		return rhnorec.New(m, p), nil
	case "FG-TLE(adaptive)":
		return core.NewAdaptiveFGTLE(m, p, core.AdaptiveConfig{}), nil
	}
	switch family, orecs, err := MethodOrecs(name); {
	case err != nil:
		return nil, err
	case family == "FG-TLE":
		return core.NewFGTLE(m, orecs, p), nil
	case family == "ALE":
		return core.NewALE(m, orecs, p), nil
	}
	return nil, fmt.Errorf("harness: unknown method %q", name)
}

// MethodOrecs splits a name of the form "FG-TLE(<n>)" or "ALE(<n>)" into
// its family and the orec count the method allocates per array, with an
// error for a count core.CheckOrecs refuses; any other name has family ""
// and no orecs. Callers that size a heap need the count before BuildMethod
// can run.
func MethodOrecs(name string) (family string, orecs int, err error) {
	family, rest, _ := strings.Cut(name, "(")
	ns, closed := strings.CutSuffix(rest, ")")
	orecs, convErr := strconv.Atoi(ns)
	if !closed || convErr != nil || family != "FG-TLE" && family != "ALE" {
		return "", 0, nil
	}
	if err := core.CheckOrecs(orecs); err != nil {
		return "", 0, fmt.Errorf("harness: method %q: %w", name, err)
	}
	return family, orecs, nil
}

// MustBuildMethod is BuildMethod for statically-known names.
func MustBuildMethod(name string, m *mem.Memory, p core.Policy) core.Method {
	meth, err := BuildMethod(name, m, p)
	if err != nil {
		panic(err)
	}
	return meth
}
