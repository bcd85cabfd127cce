// Package docscheck keeps the documentation from rotting: its tests verify
// that every relative link and heading anchor in the repository's markdown
// files resolves, that every Go package carries a godoc package comment
// (so `go doc ./...` reads as a coherent tour), and that every flag of
// mcnserve and mcngateway appears in the README. It contains no runtime code
// — the package exists so the checks run inside the ordinary test suite and
// CI instead of needing an external link-checker dependency.
package docscheck
