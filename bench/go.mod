module edgebench/bench

go 1.22

require edgebench v0.0.0

replace edgebench => ../
