// Fixture for gcslint's standalone driver: a package no rule flags, so
// a run over it exits 0.
package main

import "fmt"

func main() { fmt.Println(double(2)) }

// double has a non-test caller, so testonly keeps it.
func double(n int) int { return 2 * n }
