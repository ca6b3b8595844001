module github.com/graphstream/gsketch/benchmark

go 1.22

require github.com/graphstream/gsketch v0.0.0

replace github.com/graphstream/gsketch => ../
