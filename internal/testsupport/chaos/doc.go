// Package chaos holds the randomized fault-injection harness: tests that run
// the mixed query workload of the equivalence suites against a
// fault.Device-wrapped database and assert the robustness invariants — no
// hangs, every query ends in the fault-free result or an explicitly
// classified error (ErrChecksum for a bit flip, a storage error naming the
// page for an unreadable one), faults never poison buffer-pool pages or
// cached results — a disarmed rerun is byte-identical to the fault-free
// run — and no goroutines leak. The package contains no production code;
// the number of randomized schedules scales with -short and the
// CHAOS_SCHEDULES environment variable (see chaos_test.go).
package chaos
