package election_test

import (
	"fmt"

	"ule/election"
)

// The quickstart from the package comment: run one of the paper's
// algorithms on a built-in graph family and check the success condition.
func ExampleElect() {
	g := election.Ring(64)
	res, err := election.Elect(g, "leastel", election.Params{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("unique leader:", res.UniqueLeader())
	fmt.Println("messages ≤ 4·m·log n:", res.Messages <= 4*64*6)
	// Output:
	// unique leader: true
	// messages ≤ 4·m·log n: true
}

// Asynchronous executions draw per-message delays from a deterministic
// adversary schedule; the same seed always reproduces the same transcript.
func ExampleElect_async() {
	g := election.Ring(32)
	p := election.Params{Seed: 7, Model: "async+fifo:4"}
	a, err := election.Elect(g, "leastel", p)
	if err != nil {
		panic(err)
	}
	b, err := election.Elect(g, "leastel", p)
	if err != nil {
		panic(err)
	}
	fmt.Println("unique leader:", a.UniqueLeader())
	fmt.Println("reproducible:", a.Messages == b.Messages && a.Rounds == b.Rounds)
	// Output:
	// unique leader: true
	// reproducible: true
}

// Custom protocols implement Protocol/Process against the re-exported
// simulator types and run under the same engine, accounting and delay
// adversaries as the paper's algorithms.
func ExampleRun() {
	res, err := election.Run(election.Config{
		Graph: election.Ring(8),
		Seed:  1,
	}, echoProto{})
	if err != nil {
		panic(err)
	}
	// Every node pings both neighbors once: 2n messages.
	fmt.Println("messages:", res.Messages)
	// Output:
	// messages: 16
}

type echo struct{}

func (echo) Bits() int { return 1 }

type echoProto struct{}

func (echoProto) New(info election.NodeInfo) election.Process { return &echoProc{} }

type echoProc struct{ sent bool }

func (p *echoProc) Start(c *election.Context) {}
func (p *echoProc) Round(c *election.Context, inbox []election.Message) {
	if !p.sent {
		p.sent = true
		c.Broadcast(echo{})
		return
	}
	c.Decide(election.NonLeader)
	c.Halt()
}
