package lint

// LoadOverlay is Load under a go tool -overlay file, for the mutation
// table (mutation_test.go).
var LoadOverlay = load
