#!/bin/sh
# Run one invocation of each command that no other golden pins and print,
# per invocation, the command line, its exit status, its stdout and its
# stderr (captured apart, so their interleaving cannot vary).
# Usage: sh cli-outputs.sh ./cgra_tool.exe

tool=$1
store=cli-empty-store

run() {
  "$tool" "$@" >cli-run.out 2>cli-run.err
  status=$?
  printf '$ cgra_tool %s\nexit %d\n' "$*" "$status"
  echo "--- stdout"
  cat cli-run.out
  echo "--- stderr"
  cat cli-run.err
  echo
}

rm -rf "$store"
mkdir "$store"

run kernels
run dot -k mpeg
run greedy
run shrink -k sobel -s 8 -m 1
run simulate -k mpeg --paged
run encode -k sor --paged
run verify -k mpeg --paged --fold-sweep
run fig8 -s 4
run fig9 -s 4 --replicates 1
run fuzz os 3
run fuzz pipeline 3
run compile -s 4
run cache stats --cache "$store"
run map -k nope

rm -rf "$store" cli-run.out cli-run.err
