package sqldb

// RefMismatch holds every SELECT block of q, set operands included, to the
// frozen reference executor (ref_exec_test.go): it describes the first
// block whose rows, row order or error differ, or returns "".
func RefMismatch(db *Database, q *Query) string { return refMismatch(db, q) }
