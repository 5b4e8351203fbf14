package fabric_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/fabric"
	"ilplimit/internal/harness"
)

// Example distributes a one-benchmark suite across one in-process
// worker: the coordinator plugs into harness.RunSuite through
// Options.CellRunner, the worker pulls the cell over the wire protocol,
// and the merged SuiteResult is exactly what a local run would produce.
func Example() {
	b, err := bench.ByName("awk")
	if err != nil {
		fmt.Println(err)
		return
	}
	opt := harness.Options{Benchmarks: []bench.Benchmark{b}}

	c := fabric.NewCoordinator(opt.JournalMeta(""), fabric.CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := &fabric.Worker{Base: srv.URL, ID: "w1", Poll: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	opt.CellRunner = c.RunCell
	suite, err := harness.RunSuite(opt)
	if err != nil {
		fmt.Println(err)
		return
	}
	c.Finish()
	if err := <-done; err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(suite.Benchmarks[0].Name, len(suite.Failures) == 0)
	// Output: awk true
}
