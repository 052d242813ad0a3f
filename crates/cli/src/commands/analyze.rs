//! `spothost analyze` — statistics over a trace directory.

use crate::args::Args;
use spothost_analysis::outln;
use spothost_analysis::table::TextTable;
use spothost_market::io::read_trace_set;
use spothost_market::prelude::*;
use spothost_market::stats::{avg_intra_zone_correlation, trace_correlation};
use std::path::Path;

pub fn run(args: &Args) -> Result<(), String> {
    let dir = args
        .get("traces")
        .ok_or("analyze requires --traces DIR (see gen-traces)")?;
    let sample_mins = args.get_u64("sample-mins", 5)?;
    let catalog = Catalog::ec2_2015();
    let set = read_trace_set(&catalog, Path::new(dir)).map_err(|e| e.to_string())?;

    outln!(
        "{} markets over {:.1} days\n",
        set.len(),
        set.horizon().as_days_f64()
    );
    let mut t = TextTable::new([
        "market",
        "mean $/h",
        "std $/h",
        "max $/h",
        "spot/od",
        "% above od",
    ]);
    for (market, trace) in set.iter() {
        let pon = catalog.on_demand_price(market);
        t.row([
            market.to_string(),
            format!("{:.4}", trace.time_weighted_mean()),
            format!("{:.4}", trace.time_weighted_std()),
            format!("{:.3}", trace.max_price()),
            format!("{:.2}", trace.time_weighted_mean() / pon),
            format!("{:.2}%", trace.fraction_above(pon) * 100.0),
        ]);
    }
    outln!("{}", t.render());

    // Correlations where we have whole zones.
    let dt = SimDuration::minutes(sample_mins);
    for zone in Zone::ALL {
        let markets: Vec<MarketId> = MarketId::all_in_zone(zone)
            .into_iter()
            .filter(|m| set.trace(*m).is_some())
            .collect();
        if markets.len() >= 2 {
            outln!(
                "avg intra-zone correlation {zone}: {:.3}",
                avg_intra_zone_correlation(&set, zone)
            );
        }
    }
    // Pairwise correlation of the first two markets (example diagnostic).
    let loaded: Vec<(MarketId, &PriceTrace)> = set.iter().collect();
    if loaded.len() >= 2 {
        let (ma, ta) = loaded[0];
        let (mb, tb) = loaded[1];
        outln!(
            "correlation {ma} vs {mb}: {:.3}",
            trace_correlation(ta, tb, dt)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use spothost_market::io::write_trace_set;

    #[test]
    fn analyzes_a_generated_directory() {
        let dir = std::env::temp_dir().join(format!("spothost-cli-an-{}", std::process::id()));
        let catalog = Catalog::ec2_2015();
        let set = TraceSet::generate(
            &catalog,
            &MarketId::all_in_zone(Zone::UsWest1a),
            3,
            SimDuration::days(2),
        );
        write_trace_set(&set, &dir).unwrap();
        let argv: Vec<String> = ["--traces", dir.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&parse(&argv).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requires_traces_flag() {
        assert!(run(&parse(&[]).unwrap()).is_err());
    }
}
