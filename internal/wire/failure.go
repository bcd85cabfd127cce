package wire

// The failure table: what a query that fails answers, on both tiers. A
// replica classifies its error once (internal/serve) and renders it through
// its class; the gateway (internal/cluster) reads the class back off the
// status alone to decide whether another replica may answer and whether
// the one that answered is cooled. README's failure table is this table in
// prose, and internal/docscheck holds the two equal.

import (
	"errors"
	"fmt"
	"net/http"
)

// Class is a failure class: a row of Failures.
type Class uint8

// The failure classes, in README's order.
const (
	// ClassInvalid is the caller's request: a decoder or validate refused it.
	ClassInvalid Class = iota
	// ClassShed is an admission rejection under overload.
	ClassShed
	// ClassDraining is an admission rejection during a drain.
	ClassDraining
	// ClassDeadline is a query whose context ended before its answer: its
	// deadline passed, or its client went away.
	ClassDeadline
	// ClassStorage is a storage fault: a page the device could not read, or
	// one that failed its checksum or does not hold what it must.
	ClassStorage
	// ClassPanic is a query that panicked, or a shared computation it waited
	// on that did.
	ClassPanic
	// ClassUnclassified is any other error: a fault of the server, never of
	// the request.
	ClassUnclassified
)

// Failure is one row of the failure table.
type Failure struct {
	// Outcome names the class.
	Outcome string
	// Status is the HTTP status, which an MCNB error frame carries in-band
	// too.
	Status int
	// Message is the client-safe message; empty means the error's own text,
	// for the classes whose text speaks of the request or the load, never of
	// the server's internals.
	Message string
	// Retryable: another replica may answer, so the gateway asks the next
	// candidate.
	Retryable bool
	// Cools: the answer carries Retry-After, and the gateway takes the
	// replica out of rotation for it.
	Cools bool
}

// Failures is the failure table, indexed by Class. Classes that share a
// status share their Retryable and Cools bits, so the status alone decides
// what the gateway does.
var Failures = [...]Failure{
	ClassInvalid:      {Outcome: "invalid", Status: http.StatusBadRequest},
	ClassShed:         {Outcome: "shed", Status: http.StatusServiceUnavailable, Retryable: true, Cools: true},
	ClassDraining:     {Outcome: "draining", Status: http.StatusServiceUnavailable, Retryable: true, Cools: true},
	ClassDeadline:     {Outcome: "deadline", Status: http.StatusGatewayTimeout, Message: "deadline exceeded"},
	ClassStorage:      {Outcome: "storage", Status: http.StatusInternalServerError, Message: "storage failure", Retryable: true},
	ClassPanic:        {Outcome: "panic", Status: http.StatusInternalServerError, Message: "internal query failure", Retryable: true},
	ClassUnclassified: {Outcome: "unclassified", Status: http.StatusInternalServerError, Message: "internal failure", Retryable: true},
}

// StatusFailure returns the row a status answers for: none below 400 (a
// row with neither bit), else the first with that status, else the caller's
// class for any other 4xx and the unclassified one for any other 5xx.
func StatusFailure(status int) Failure {
	if status < 400 {
		return Failure{Status: status}
	}
	for _, f := range Failures {
		if f.Status == status {
			return f
		}
	}
	if status >= 500 {
		return Failures[ClassUnclassified]
	}
	return Failures[ClassInvalid]
}

// Error returns the client-safe error body of err in class c.
func (c Class) Error(err error) Error {
	if msg := Failures[c].Message; msg != "" {
		return Error{Error: msg}
	}
	return Error{Error: err.Error()}
}

// Write writes v as class c's complete response in mode: c's status, and
// Retry-After when c cools, the one place that header is set.
func (c Class) Write(w http.ResponseWriter, mode Mode, v any) {
	if Failures[c].Cools {
		w.Header().Set("Retry-After", "1")
	}
	Write(w, mode, Failures[c].Status, v)
}

// ErrInvalid is the sentinel every refused request wraps: each error of
// DecodeHTTP and of the replica's validate step, whose text it keeps.
var ErrInvalid = errors.New("invalid request")

// invalid marks an error as the caller's.
type invalid struct{ error }

func (e invalid) Unwrap() []error { return []error{e.error, ErrInvalid} }

// Invalidf formats a refusal of the request: an error with the formatted
// text that wraps ErrInvalid.
func Invalidf(format string, args ...any) error {
	return invalid{fmt.Errorf(format, args...)}
}
