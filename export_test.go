package rtle

// OptionScope exposes the option scope table to the package's external
// tests.
var OptionScope = optionScope
