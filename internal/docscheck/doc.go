// Package docscheck keeps the documentation, the package graph and the
// product's exported surface from rotting: its tests verify that every
// relative link and heading anchor in the repository's markdown files
// resolves, that every markdown file a Go comment names exists, that every
// Go package carries a godoc package comment, that every flag of mcnserve
// and mcngateway appears in the README, and — the layering check,
// TestPackageGraph — that every module import is an edge of the package
// graph in layering_test.go, that only _test.go files import
// internal/testsupport, that every package ARCHITECTURE.md's Layer map
// names exists, and that README.md's Layout names exactly the packages
// that exist. TestNoTestOnlyExports type-checks every non-test package with
// go/types and fails on an exported name the product does not use: under
// internal/, a name no product code calls; in the facade, one no product
// code calls and the README and ARCHITECTURE.md do not name, with an
// allow-list for what the benchmark harness still binds. It contains no
// runtime code: the checks run inside the ordinary test suite, on the
// standard library's go/parser and go/types (the type checker reads the
// standard library's export data through `go list -export`), with no
// external checker.
package docscheck
