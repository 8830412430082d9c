// Command netfail-query answers questions against an indexed failure
// store (written by netfail-analyze -store, netfail.WithStoreDir, or
// AnalyzeCaptureDir) without re-running the analysis pipeline: window
// and link lookups ride the store's sparse time indexes and posting
// lists instead of a full replay.
//
// Usage:
//
//	netfail-query -store ./store links
//	netfail-query -store ./store failures -link "a:0|b:0" -source isis
//	netfail-query -store ./store transitions -stream syslog-adj -dir down \
//	    -from 2010-10-02T00:00:00Z -to 2010-10-03T00:00:00Z
//	netfail-query -store ./store messages -host cpe-017 -contains UPDOWN
//	netfail-query -store ./store flaps -source syslog
//	netfail-query -store ./store table -n 4
//	netfail-query -store ./store info
//	netfail-query -store ./store serve -debug-addr 127.0.0.1:8080
//
// Every verb accepts -json for machine-readable output (the bodies the
// /api/v1 HTTP surface serves, compact: pipe through `jq .` to read
// one); serve mounts that surface over HTTP. -lenient opens the store
// in salvage mode, printing what was skipped to stderr and exiting 3
// if anything was — the same convention as netfail-analyze.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"netfail/internal/api"
	"netfail/internal/config"
	"netfail/internal/report"
	"netfail/internal/store"
)

func main() {
	var (
		storeDir = flag.String("store", "store", "store directory written by netfail-analyze -store")
		jsonOut  = config.JSONFlag(flag.CommandLine)
		lenient  = flag.Bool("lenient", false, "salvage damaged records instead of aborting on the first, accounting every skip")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, os.Stdout, *storeDir, *lenient, *jsonOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "netfail-query:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: netfail-query [flags] <verb> [verb flags]

verbs:
  links        list the link catalog
  failures     query stored failures      (-link -source -from -to -limit)
  transitions  query stored transitions   (-link -stream -dir -kind -reporter -from -to -limit)
  messages     query stored syslog lines  (-host -contains -from -to -limit)
  flaps        group failures into flap episodes (-source -link -from -to)
  table        print a precomputed agreement table (-n 1..7)
  info         print the store's campaign metadata and record counts
  serve        serve the /api/v1 HTTP query surface (-debug-addr)

flags:
`)
	flag.PrintDefaults()
}

func run(ctx context.Context, out io.Writer, dir string, lenient, jsonOut bool, args []string) error {
	if !store.IsStoreDir(dir) {
		return fmt.Errorf("%s is not a store directory (no %s); write one with netfail-analyze -store", dir, store.ManifestName)
	}
	var s *store.Store
	var err error
	if lenient {
		s, err = store.OpenLenient(dir)
	} else {
		s, err = store.Open(dir)
	}
	if err != nil {
		return err
	}

	verb, rest := args[0], args[1:]
	switch verb {
	case "links":
		err = runLinks(ctx, out, s, jsonOut, rest)
	case "failures":
		err = runFailures(ctx, out, s, jsonOut, rest)
	case "transitions":
		err = runTransitions(ctx, out, s, jsonOut, rest)
	case "messages":
		err = runMessages(ctx, out, s, jsonOut, rest)
	case "flaps":
		err = runFlaps(ctx, out, s, jsonOut, rest)
	case "table":
		err = runTable(out, s, jsonOut, rest)
	case "info":
		err = runInfo(out, s, jsonOut, rest)
	case "serve":
		err = runServe(ctx, out, s, rest)
	default:
		return fmt.Errorf("unknown verb %q (want links, failures, transitions, messages, flaps, table, info, or serve)", verb)
	}
	if err != nil {
		return err
	}
	return reportSalvage(s)
}

// reportSalvage prints the lenient accounting and exits 3 when any
// record was skipped, mirroring netfail-analyze's salvage convention.
func reportSalvage(s *store.Store) error {
	if !s.Lenient() {
		return nil
	}
	salvaged := false
	for _, cs := range s.Salvage() {
		fmt.Fprintf(os.Stderr, "netfail-query: salvage %s: %s\n", cs.Name, cs.Report)
		if !cs.Report.Clean() {
			salvaged = true
		}
	}
	if salvaged {
		os.Exit(3)
	}
	return nil
}

// queryUsage is the query vocabulary of api.ParseQuery — the URL
// parameters of the /api/v1 endpoints — as verb flags: name, usage.
var queryUsage = map[string]string{
	"link":     "restrict to one link ID",
	"source":   "restrict to one reconstruction: syslog or isis",
	"stream":   "restrict to one stream: syslog-adj, syslog-per-router, syslog-physical, is-reach, or ip-reach",
	"dir":      "restrict to one direction: down or up",
	"kind":     "restrict to one observation kind (e.g. isis-adj, physical)",
	"reporter": "restrict to one reporting router",
	"host":     "restrict to one emitting host",
	"contains": "restrict to lines containing this substring",
	"limit":    "cap the result count (0 = unlimited)",
	"from":     "window start (RFC 3339)",
	"to":       "window end (RFC 3339)",
}

func verbFlags(verb string) *flag.FlagSet {
	fs := flag.NewFlagSet("netfail-query "+verb, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// queryFlags declares the named parameters ("name" or "name=default")
// as the verb's flags, parses args, and returns what api.ParseQuery
// makes of them — a malformed one reported as "-name: ..." — with the
// lookup it read them through.
func queryFlags(verb string, args []string, names ...string) ([]store.Option, func(name string) string, error) {
	fs := verbFlags(verb)
	vals := map[string]*string{}
	for _, n := range names {
		name, def, _ := strings.Cut(n, "=")
		vals[name] = fs.String(name, def, queryUsage[name])
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	get := func(name string) string {
		if v := vals[name]; v != nil {
			return *v
		}
		return ""
	}
	opts, err := api.ParseQuery(get)
	var pe *api.ParamError
	if errors.As(err, &pe) {
		err = fmt.Errorf("-%s: %w", pe.Name, pe.Err)
	}
	return opts, get, err
}

func runLinks(ctx context.Context, out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	if err := verbFlags("links").Parse(args); err != nil {
		return err
	}
	links, err := s.Links(ctx)
	if err != nil {
		return err
	}
	if jsonOut {
		return printBody(out, api.AppendLinks(nil, links))
	}
	for _, l := range links {
		fmt.Fprintf(out, "%-8s %s\n", l.Class, l.ID)
	}
	fmt.Fprintf(out, "%d links\n", len(links))
	return nil
}

func runFailures(ctx context.Context, out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	opts, _, err := queryFlags("failures", args, "link", "source", "limit", "from", "to")
	if err != nil {
		return err
	}
	recs, err := s.Failures(ctx, opts...)
	if err != nil {
		return err
	}
	if jsonOut {
		return printBody(out, api.AppendFailures(nil, recs))
	}
	for _, r := range recs {
		fmt.Fprintf(out, "%-7s %s  %s  (%s)  %s\n", r.Source,
			r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
			r.End.Sub(r.Start), r.Link)
	}
	fmt.Fprintf(out, "%d failures\n", len(recs))
	return nil
}

func runTransitions(ctx context.Context, out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	opts, _, err := queryFlags("transitions", args, "link", "stream", "dir", "kind", "reporter", "limit", "from", "to")
	if err != nil {
		return err
	}
	recs, err := s.Transitions(ctx, opts...)
	if err != nil {
		return err
	}
	if jsonOut {
		return printBody(out, api.AppendTransitions(nil, recs))
	}
	for _, r := range recs {
		fmt.Fprintf(out, "%s  %-17s %-4s %-10s %-12s %s\n", r.Time.Format(time.RFC3339),
			r.Stream, r.Dir, r.Kind, r.Reporter, r.Link)
	}
	fmt.Fprintf(out, "%d transitions\n", len(recs))
	return nil
}

func runMessages(ctx context.Context, out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	opts, _, err := queryFlags("messages", args, "host", "contains", "limit", "from", "to")
	if err != nil {
		return err
	}
	recs, err := s.Messages(ctx, opts...)
	if err != nil {
		return err
	}
	if jsonOut {
		return printBody(out, api.AppendMessages(nil, recs))
	}
	for _, r := range recs {
		fmt.Fprintln(out, r.Line)
	}
	fmt.Fprintf(os.Stderr, "%d messages\n", len(recs))
	return nil
}

func runFlaps(ctx context.Context, out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	opts, get, err := queryFlags("flaps", args, "source=syslog", "link", "from", "to")
	if err != nil {
		return err
	}
	src, err := store.ParseSource(get("source"))
	if err != nil {
		return err
	}
	eps, err := s.Flaps(ctx, src, opts...)
	if err != nil {
		return err
	}
	if jsonOut {
		return printBody(out, api.AppendEpisodes(nil, src, eps))
	}
	flaps := 0
	for _, e := range eps {
		tag := " "
		if e.IsFlap() {
			tag = "*"
			flaps++
		}
		fmt.Fprintf(out, "%s %s  %s  %3d failures  %s\n", tag,
			e.Start().Format(time.RFC3339), e.End().Format(time.RFC3339),
			len(e.Failures), e.Link)
	}
	fmt.Fprintf(out, "%d episodes (%d flapping)\n", len(eps), flaps)
	return nil
}

func runTable(out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	fs := verbFlags("table")
	n := fs.Int("n", 0, "table number (1-7)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	table, err := s.Table(*n)
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(out, map[string]any{"table": *n, "data": table})
	}
	t := s.Tables()
	switch *n {
	case 1:
		return report.RenderTable1(out, t.Table1)
	case 2:
		return report.RenderTable2(out, t.Table2)
	case 3:
		return report.RenderTable3(out, t.Table3)
	case 4:
		return report.RenderTable4(out, t.Table4)
	case 5:
		return report.RenderTable5(out, t.Table5)
	case 6:
		return report.RenderTable6(out, t.Table6)
	case 7:
		return report.RenderTable7(out, t.Table7)
	}
	return fmt.Errorf("no table %d", *n)
}

func runInfo(out io.Writer, s *store.Store, jsonOut bool, args []string) error {
	fs := verbFlags("info")
	if err := fs.Parse(args); err != nil {
		return err
	}
	man := s.Manifest()
	var msgs int64
	for _, m := range man.Messages {
		msgs += m.Records
	}
	if jsonOut {
		return printJSON(out, man)
	}
	fmt.Fprintf(out, "store:        %s (%s)\n", s.Dir(), man.Format)
	fmt.Fprintf(out, "campaign:     seed %d, %s - %s\n", man.Seed,
		man.Start.Format(time.RFC3339), man.End.Format(time.RFC3339))
	fmt.Fprintf(out, "catalogs:     %d links, %d reporters, %d hosts\n",
		len(man.Links), len(man.Reporters), len(man.Hosts))
	fmt.Fprintf(out, "records:      %d failures, %d transitions, %d messages in %d segments\n",
		man.Failures.Records, man.Transitions.Records, msgs, len(man.Messages))
	fmt.Fprintf(out, "params:       window %s, flap gap %s, merge window %s, multilink %v\n",
		man.Params.Window, man.Params.FlapGap, man.Params.MergeWindow,
		man.Params.IncludeMultiLink)
	return nil
}

func runServe(ctx context.Context, out io.Writer, s *store.Store, args []string) error {
	fs := verbFlags("serve")
	addr := config.DebugAddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("serve: -debug-addr is required")
	}
	srv := api.NewServer(*addr, api.Options{Store: s})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "serving /api/v1 on http://%s\n", *addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shctx)
	}
}

// printJSON prints v as the HTTP surface would: compact, one line
// (pipe through `jq .` to read it).
func printJSON(out io.Writer, v any) error {
	return json.NewEncoder(out).Encode(v)
}

// printBody prints a list resource's API body.
func printBody(out io.Writer, body []byte) error {
	_, err := out.Write(body)
	return err
}
