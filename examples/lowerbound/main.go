// Lowerbound: a live demonstration of both lower bounds.
//
// Theorem 3.1 (Ω(m) messages): on dumbbell graphs, every algorithm —
// regardless of how clever — pays at least ~1 message per edge, because
// until a message crosses one of the two bridges, the two halves cannot
// know the other exists, and finding the (adversarially placed) bridges
// costs Ω(m) expected probes.
//
// Theorem 3.13 (Ω(D) time): on the Figure 1 clique-cycle, opposite arcs
// are Ω(D) hops apart, so any run shorter than that risks electing one
// leader in each arc.
package main

import (
	"fmt"
	"log"

	"ule/election"
	"ule/internal/graph"
	"ule/internal/lowerbound"
)

func main() {
	fmt.Println("=== Theorem 3.1: Ω(m) messages on dumbbells ===")
	fmt.Printf("%-14s %8s %8s %12s %12s\n", "algo", "m(total)", "msgs/m", "crossRound", "beforeCross")
	for _, algo := range []string{"leastel-const", "leastel", "kingdom"} {
		for _, m := range []int{100, 300, 900} {
			row, err := lowerbound.MessageLB(24, m, lowerbound.Sweep{Algo: algo, Trials: 5, Seed: 9})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %8d %8.2f %12.1f %12.0f\n",
				algo, 2*m, row.MsgsPerM.Mean, row.CrossRound.Mean, row.BeforeCross.Mean)
		}
	}
	fmt.Println("\nmsgs/m never drops below ~1: the bound is tight (dfs achieves O(m)).")

	fmt.Println("\n=== Theorem 3.13: Ω(D) time on the clique-cycle (Figure 1) ===")
	fmt.Printf("%-10s %6s %10s %14s %14s\n", "algo", "D", "rounds/D", "success@0.25D", "success@full")
	for _, d := range []int{8, 16, 32} {
		row, trunc, err := lowerbound.TimeLB(4*d, d, lowerbound.Sweep{Algo: "leastel", Trials: 5, Seed: 9}, 0.25)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %6d %10.2f %14.2f %14.2f\n",
			"leastel", row.D, row.RoundsPerD.Mean, trunc[0].SuccessRate, row.SuccessRate)
	}

	fmt.Println("\n=== §1: why \"suitably large\" success probability matters ===")
	row, err := lowerbound.TrivialSuccess(256, 2000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the 1/n self-election: 0 messages, 1 round, success %.3f (1/e ≈ 0.368)\n", row.SuccessRate)
	fmt.Println("constant-but-small success is free; the lower bounds kick in above it.")

	// The tightness witness: Theorem 4.1 achieves O(m) on the same family.
	db, _, err := graph.RandomDumbbell(24, 300, election.NewRand(2))
	if err != nil {
		log.Fatal(err)
	}
	ids := election.PermutationIDs(db.N(), election.NewRand(3))
	res, err := election.Elect(db.Graph, "dfs", election.Params{Seed: 4, IDs: ids})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTheorem 4.1 on the same dumbbell: %d messages = %.2f per edge (tight!)\n",
		res.Messages, float64(res.Messages)/float64(db.M()))
}
