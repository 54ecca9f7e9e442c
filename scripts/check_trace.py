#!/usr/bin/env python3
"""Validate a cicmon-trace-v1 JSONL log.

Checks the structural contract docs/telemetry.md promises:

  - line 1 is the header: {"schema": "cicmon-trace-v1", "command": <str>}
  - every later line is an event object with "ev" in {"span", "instant",
    "metrics"}; spans and instants carry a string "name" and integer
    "t_us", spans additionally an integer "dur_us"
  - exactly one "metrics" event, and it is the final line, with object
    "counters" and "timers" members

Optional assertions for CI:

  --expect-span NAME=N     exactly N spans named NAME
  --expect-command CMD     header names subcommand CMD
  --expect-counter NAME=N  the metrics footer records counter NAME == N (the
                           footer omits zero counters, so N=0 means absent)
  --expect-counter-equals-instants NAME=INSTANT
                           counter NAME equals the number of INSTANT instants

Exits 0 when the trace is valid, 1 with a message on stderr otherwise.
"""

import argparse
import json
import sys


def fail(line_no, message):
    print(f"check_trace: line {line_no}: {message}", file=sys.stderr)
    sys.exit(1)


def parse_expect(values, what):
    out = {}
    for item in values:
        name, sep, count = item.partition("=")
        if not sep or not count.isdigit():
            print(f"check_trace: bad {what} '{item}' (want NAME=N)", file=sys.stderr)
            sys.exit(2)
        out[name] = int(count)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="cicmon-trace-v1 JSONL file")
    parser.add_argument("--expect-span", action="append", default=[], metavar="NAME=N")
    parser.add_argument("--expect-counter", action="append", default=[], metavar="NAME=N")
    parser.add_argument("--expect-counter-equals-instants", action="append", default=[],
                        metavar="NAME=INSTANT")
    parser.add_argument("--expect-command", metavar="CMD")
    args = parser.parse_args()

    expect_spans = parse_expect(args.expect_span, "--expect-span")
    expect_counters = parse_expect(args.expect_counter, "--expect-counter")
    counter_instants = {}
    for item in args.expect_counter_equals_instants:
        name, sep, instant = item.partition("=")
        if not sep or not name or not instant:
            print(f"check_trace: bad --expect-counter-equals-instants '{item}' "
                  "(want NAME=INSTANT)", file=sys.stderr)
            sys.exit(2)
        counter_instants[name] = instant

    with open(args.trace, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    if not lines:
        fail(1, "empty trace")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(1, f"header is not JSON: {err}")
    if header.get("schema") != "cicmon-trace-v1":
        fail(1, f"bad schema {header.get('schema')!r}")
    command = header.get("command")
    if not isinstance(command, str) or not command:
        fail(1, "header missing command")
    if args.expect_command and command != args.expect_command:
        fail(1, f"command is {command!r}, expected {args.expect_command!r}")

    span_counts = {}
    instant_counts = {}
    events = 0
    metrics = None
    last_ev = None
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            fail(line_no, f"not JSON: {err}")
        if not isinstance(event, dict):
            fail(line_no, "event is not an object")
        ev = event.get("ev")
        if ev not in ("span", "instant", "metrics"):
            fail(line_no, f"unknown ev {ev!r}")
        events += 1
        last_ev = ev
        if ev == "metrics":
            if metrics is not None:
                fail(line_no, "second metrics event")
            for key in ("counters", "timers"):
                if not isinstance(event.get(key), dict):
                    fail(line_no, f"metrics event missing object {key!r}")
            metrics = event
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            fail(line_no, f"{ev} missing name")
        t_us = event.get("t_us")
        if not isinstance(t_us, int) or t_us < 0:
            fail(line_no, f"{ev} '{name}' has bad t_us {t_us!r}")
        if ev == "span":
            dur_us = event.get("dur_us")
            if not isinstance(dur_us, int) or dur_us < 0:
                fail(line_no, f"span '{name}' has bad dur_us {dur_us!r}")
            span_counts[name] = span_counts.get(name, 0) + 1
        else:
            instant_counts[name] = instant_counts.get(name, 0) + 1

    if metrics is None:
        fail(len(lines), "no metrics footer")
    if last_ev != "metrics":
        fail(len(lines), "metrics footer is not the final line")

    for name, want in expect_spans.items():
        got = span_counts.get(name, 0)
        if got != want:
            fail(len(lines), f"expected {want} '{name}' span(s), found {got}")
    for name, want in expect_counters.items():
        got = metrics["counters"].get(name, 0)
        if got != want:
            fail(len(lines), f"expected counter {name}={want}, found {got!r}")
    for name, instant in counter_instants.items():
        got = metrics["counters"].get(name, 0)
        want = instant_counts.get(instant, 0)
        if got != want:
            fail(len(lines), f"expected counter {name} to equal the {want} '{instant}' "
                 f"instant(s), found {got!r}")

    print(f"check_trace: OK — {events} event(s), {sum(span_counts.values())} span(s), "
          f"{len(metrics['counters'])} counter(s)")


if __name__ == "__main__":
    main()
