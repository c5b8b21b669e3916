package markov

// Hooks for the external differential and allocation tests, which need
// the compiler and the app suite and so cannot live in package markov.
type RefPath = refPath

var (
	EnumerateReference = enumerateReference
	PathTimeReference  = pathTimeReference
)
