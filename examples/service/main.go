// Service: drive a running uled server from Go — one election, a
// streamed sweep consumed line by line, and an async job polled to
// completion.
//
// Start a server first:
//
//	go run ./cmd/uled -addr 127.0.0.1:8080
//
// then:
//
//	go run ./examples/service -addr 127.0.0.1:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "uled server address")
	flag.Parse()
	base := "http://" + strings.TrimPrefix(*addr, "http://")

	// One election: POST a request, read the result document.
	election := map[string]any{
		"graph": "random:100:300", "algo": "leastel",
		"seed": 7, "small_ids": true,
	}
	var result struct {
		N        int   `json:"n"`
		Rounds   int   `json:"rounds"`
		Messages int64 `json:"messages"`
		Leader   int   `json:"leader"`
		Unique   bool  `json:"unique"`
	}
	if err := post(base+"/v1/elections", election, &result); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("election: leader %d on n=%d (unique=%v) in %d rounds, %d messages\n",
		result.Leader, result.N, result.Unique, result.Rounds, result.Messages)

	// A streamed sweep: the response is NDJSON — header, one line per
	// trial, trailer with the group aggregates.
	sweep := map[string]any{
		"name": "example", "algos": []string{"leastel", "flood"},
		"graphs": []string{"ring:64"}, "trials": 3, "seed": 11, "small_ids": true,
	}
	body, _ := json.Marshal(sweep)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var trial struct {
			Algo   string `json:"algo"`
			Rounds int    `json:"rounds"`
			Unique bool   `json:"unique"`
			Groups []any  `json:"groups"`
		}
		json.Unmarshal(sc.Bytes(), &trial)
		switch {
		case lines == 0:
			fmt.Println("sweep: streaming…")
		case trial.Groups != nil:
			fmt.Printf("sweep: done, %d group(s)\n", len(trial.Groups))
		default:
			fmt.Printf("  trial %-8s rounds=%-4d unique=%v\n", trial.Algo, trial.Rounds, trial.Unique)
		}
		lines++
	}

	// An async job: submit with ?async=1, poll /v1/jobs/{id} until done.
	var job struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := post(base+"/v1/sweeps?async=1", sweep, &job); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: submitted\n", job.ID)
	for job.State != "done" && job.State != "failed" && job.State != "cancelled" {
		time.Sleep(50 * time.Millisecond)
		if err := get(base+"/v1/jobs/"+job.ID, &job); err != nil {
			log.Fatal(err)
		}
	}
	if job.State != "done" {
		log.Fatalf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	var summary struct {
		TotalTrials int `json:"total_trials"`
	}
	json.Unmarshal(job.Result, &summary)
	fmt.Printf("job %s: done, %d trials\n", job.ID, summary.TotalTrials)
}

// post retries 503s (full job table, draining server): it waits the
// server's Retry-After hint when there is one, and otherwise a delay that
// doubles from 200ms, instead of hot-looping on a saturated server.
func post(url string, req, res any) error {
	const maxAttempts = 5
	body, _ := json.Marshal(req)
	delay := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < maxAttempts-1 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
			resp.Body.Close()
			fmt.Printf("server busy (503), retrying in %v…\n", delay.Round(time.Millisecond))
			time.Sleep(delay)
			delay *= 2
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			var eb struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&eb)
			return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, eb.Error)
		}
		return json.NewDecoder(resp.Body).Decode(res)
	}
}

func get(url string, res any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(res)
}
