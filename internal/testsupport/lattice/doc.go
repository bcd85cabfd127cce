// Package lattice is the differential test of every in-process execution
// mode: one table of modes — the source (MemorySource, flat, flat over a
// permuted numbering, flat behind a six-method wrapper, disk behind a 1 %
// and a 100 % buffer pool, disk behind the wrapper) × engine (LSA, CEA) ×
// enhancements (on, off) × bounds (none, the source's own pruning index),
// plus a time-dependent network at an instant and a dynamic.Maintainer
// after an insert/delete script — asked every query kind on instances from
// testnet's hard-case generator, and held to one brute-force oracle
// (testnet) and to the MemorySource reference row, bit for bit with its
// work counters. A new execution mode is one more row in that table. The
// package contains no production code: its own tests, and the test files of
// the packages whose answer suites it took over, call Check and Sweep.
package lattice
