package storage

import (
	"errors"
	"fmt"
)

// Error taxonomy of the storage layer. A page read is one device read, and
// every failure a query can observe falls into one of two classes:
//
//   - corrupt: the page was read "successfully" but its content fails the
//     database's checksum (ErrChecksum). Counted separately, so silent
//     corruption is always visible in /stats.
//   - permanent: the device's own error, surfaced as it is (wrapped with the
//     page id).
//
// Neither is retried: the pool's devices do not fail transiently (a mapped
// file re-reads the same bytes), so a second attempt would return the same
// error later. Both, like a tree page that is not one, reach a query as a
// fault (IsFault).

// ErrChecksum reports a page whose content does not match the database's
// checksum table: silent corruption turned into an explicit, classified
// error.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// fault is the one error type of every storage failure a query can observe:
// a page the device could not read, a page whose content failed its
// checksum, a tree or record page that does not hold what it must. The
// serving tier answers each alike, whatever its text (IsFault).
type fault struct{ err error }

func (f *fault) Error() string { return f.err.Error() }

// Unwrap returns the fault's cause: ErrChecksum, or the device's own error.
func (f *fault) Unwrap() error { return f.err }

// faultf formats a fault, its text prefixed "storage: ".
func faultf(format string, args ...any) error {
	return &fault{fmt.Errorf("storage: "+format, args...)}
}

// IsFault reports whether err is, or wraps, a storage fault.
func IsFault(err error) bool {
	var f *fault
	return errors.As(err, &f)
}

// FailureStats counts the buffer pool's failed page reads since the pool was
// created. Counters are updated atomically and read lock-free, like Stats;
// they are not reset by ResetStats (failures are rare and lifetime totals
// are what operators alert on).
type FailureStats struct {
	// Retries is always zero: a page read is one attempt. It is kept for
	// readers of the field and left out of JSON.
	Retries int64 `json:"-"`
	// Permanent counts reads that failed with the device's own error.
	Permanent int64 `json:"io_fail_permanent"`
	// Checksum counts reads whose page failed its checksum.
	Checksum int64 `json:"checksum_errors"`
}

// String implements fmt.Stringer.
func (f FailureStats) String() string {
	return fmt.Sprintf("permanent=%d checksum=%d", f.Permanent, f.Checksum)
}
