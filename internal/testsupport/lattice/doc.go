// Package lattice is the differential test of every execution mode: one
// table of modes — the source (testnet.MemorySource, flat, flat over a
// permuted numbering, flat behind a six-method wrapper, disk behind a 1 %
// and a 100 % buffer pool, disk behind the wrapper) × engine (LSA, CEA) ×
// enhancements (on, off) × bounds (none, the source's own pruning index),
// plus a time-dependent network at an instant and over a period, a
// dynamic.Maintainer after an insert/delete script, the update-mix rows
// ("update mix" and "update mix, cached": a static executor and a
// time-dependent network, without and with one shared result cache, read
// while profile edits and a maintainer's inserts and deletes race them,
// each answer held to a version inside its window), and the wire rows: the
// serve handler over the network in memory, over a disk database and with
// its result cache, and a cluster gateway over three replicas with all up,
// one down and one shedding, asked over an in-memory HTTP network in every
// codec — asked every query kind on instances from testnet's hard-case
// generator, and held to one brute-force oracle (testnet) and to a
// reference row, bit for bit with its work counters (over the wire, once
// the codec's narrowing is applied). A new execution mode is one more row
// in that table. The package contains no production code: its own tests,
// and the test files of the packages whose answer suites it took over, call
// Check and Sweep.
package lattice
