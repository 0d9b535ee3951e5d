//! Regenerates Table 6: the simulated MANET intrusions and their
//! script parameters.

fn main() {
    println!("Table 6: Simulated MANET intrusions");
    println!("{:-<86}", "");
    println!("{:26} | {:38} | Parameters", "Attack Script", "Description");
    println!("{:-<86}", "");
    println!(
        "{:26} | {:38} | duration",
        "Black hole", "bogus shortest route to all nodes;"
    );
    println!("{:26} | {:38} |", "", "absorbs all traffic nearby");
    println!(
        "{:26} | {:38} | duration, destination",
        "Selective packet dropping", "drop packets to specific destination"
    );
    println!("{:-<86}", "");
    println!("Implemented in manet-attacks:");
    println!("  Blackhole<A>                  (spoofed max-sequence ROUTE REQUEST floods)");
    println!("  PacketDropper<A>              (constant / random / periodic / selective policies)");
    println!("  UpdateStorm<A>                (bonus: the Section 2.3 update storm attack)");
    println!("  Schedule::on_off              (equal session duration and gap, per the paper)");
    println!("  (each wraps the honest DsrAgent or AodvAgent)");
}
