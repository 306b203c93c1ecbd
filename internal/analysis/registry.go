package analysis

// Analyzers is the full gcslint suite, in report order.
var Analyzers = []*Analyzer{
	Nondeterminism,
	Seampurity,
	Lockorder,
	Zeroalloc,
	Maprange,
	Testonly,
}
