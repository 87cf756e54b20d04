// Package fo checks that the fan-out pool is gated like internal/sim.
package fo

var started int

func run(n int, results chan<- int) {
	for i := 0; i < n; i++ {
		go func() {
			v := i * i // goroutine-local: fine
			results <- v
		}()
	}
	started += n // want `write to package-level variable started`
}
