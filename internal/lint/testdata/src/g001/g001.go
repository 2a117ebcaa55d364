// Package g001 is the golden-diagnostic package for check G001
// (DESIGN.md §12): no goroutines in the engine or the protocol packages.
// Every go statement in a package in scope is a violation, wherever it sits
// and whatever it starts, unless a justified allow exempts it.
package g001

func work() {}

// direct starts a closure.
func direct(done chan struct{}) {
	go func() { close(done) }() // want "G001: go statement in .*g001: a simulation runs on one goroutine"
}

// named starts a declared function.
func named() {
	go work() // want "go statement in"
}

// nested starts a goroutine from a closure that may never run.
func nested() func() {
	return func() {
		go work() // want "go statement in"
	}
}

// exempt carries a justified allow, which suppresses the diagnostic.
func exempt() {
	//grlint:allow G001 -- golden: a justified allow suppresses the diagnostic
	go work()
}
