package harness_test

import (
	"fmt"

	"ule/internal/harness"
)

// A declarative sweep: two algorithms on two graphs, synchronous and
// asynchronous, its trials claimed in index order by the workers. The same
// spec yields byte-identical emitter output for any worker count.
func ExampleRun() {
	spec := harness.Spec{
		Name:   "example",
		Algos:  []string{"leastel", "kingdom"},
		Graphs: []string{"ring:16", "random:24:60"},
		Modes:  []string{"congest", "async"},
		Delays: []string{"fifo:4"},
		Trials: 3,
		Seed:   2,
	}
	rep, err := harness.Run(spec, harness.RunConfig{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("trials:", rep.Total, "errors:", rep.Errors)
	sync := rep.Group("leastel", "ring:16", "congest", "sync")
	async := rep.Group("leastel", "ring:16", "async", "sync", "fifo:4")
	fmt.Printf("leastel ring:16 sync:  success %.0f%%\n", 100*sync.Success)
	fmt.Printf("leastel ring:16 async: success %.0f%% under %s delays\n", 100*async.Success, async.Delay)
	// Output:
	// trials: 24 errors: 0
	// leastel ring:16 sync:  success 100%
	// leastel ring:16 async: success 100% under fifo:4 delays
}
