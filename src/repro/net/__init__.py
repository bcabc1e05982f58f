"""Virtual network substrate: IPv4 addressing, hosts, ports and routing."""
