package shred

// RefTranslate exposes the frozen root-chain translation to the external
// test package.
var RefTranslate = refTranslate
