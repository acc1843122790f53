package pattern

// RefContains exposes the frozen reference to the external test package.
var RefContains = refContains
