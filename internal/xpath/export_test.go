package xpath

// RefEval exposes the frozen reference evaluator to the external tests,
// which import packages that themselves import xpath.
var RefEval = refEval
