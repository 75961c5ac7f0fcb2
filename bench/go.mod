module metis/bench

go 1.22

require metis v0.0.0

replace metis => ../
