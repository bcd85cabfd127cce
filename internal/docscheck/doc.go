// Package docscheck keeps the documentation and the package graph from
// rotting: its tests verify that every relative link and heading anchor in
// the repository's markdown files resolves, that every Go package carries a
// godoc package comment, that every flag of mcnserve and mcngateway appears
// in the README, and — the layering check, TestPackageGraph — that every
// module import is an edge of the package graph in layering_test.go, that
// only _test.go files import internal/testsupport, that every package
// ARCHITECTURE.md's Layer map names exists, and that README.md's Layout
// names exactly the packages that exist. It contains no runtime code: the
// checks run inside the ordinary test suite, on the standard library's
// go/parser, with no external checker.
package docscheck
