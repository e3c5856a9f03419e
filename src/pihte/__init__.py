"""Plug-in causal-effect estimand evaluation over hypertree decompositions."""
